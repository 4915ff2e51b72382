//! The nemesis: trace-aware, deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each pairing a
//! [`Trigger`] (when to fire) with a [`FaultAction`] (what to do). The
//! runner polls the plan at two fixed points of every time slot — before
//! scheduling and right after the granted step — so an injection lands at
//! exactly the same step on every run of the same `(program, schedule,
//! seed, plan)`.
//!
//! The admissible injections mirror the paper's model (see `DESIGN.md`):
//!
//! * **crashes** — a process stops taking steps forever (no recovery);
//! * **register fault bursts** — temporary abort/effect-policy overrides
//!   on abortable registers, all within the abortable specification;
//! * **schedule perturbation** — demote a process from the timely set or
//!   make it flicker, via a [`ScheduleCtl`];
//! * **candidacy churn** — flip boolean switches (e.g. an Ω∆ candidate
//!   flag) registered as [`Local`] handles.
//!
//! Triggers can be *trace-aware*: [`Trigger::OnObs`] fires on an
//! observation (e.g. "the first `leader` announcement"), and with
//! [`FaultTarget::ObsValue`] the observed value itself names the victim —
//! "crash the current leader" without knowing in advance who wins.
//! [`Trigger::OnGauge`] watches an externally registered gauge such as a
//! register's in-flight-operation counter, which is how a crash lands
//! exactly between `invoke_` and `complete_` of an operation.
//!
//! The runner polls every step, but a poll scans the plan only when
//! something can be due: the [`Nemesis`] caches the earliest unfired
//! [`Trigger::At`] time and whether any [`Trigger::OnObs`] or
//! [`Trigger::OnGauge`] event is still armed, and recomputes these only
//! when an event fires. Requested crashes go into a buffer the runner
//! owns and reuses, so a quiet poll allocates nothing.

use crate::ids::ProcId;
use crate::json::Json;
use crate::local::Local;
use crate::schedule::ScheduleCtl;
use crate::trace::Obs;
use std::collections::BTreeMap;

/// Which process an action applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTarget {
    /// A fixed process id.
    Proc(usize),
    /// The process named by the value of the observation that fired the
    /// trigger (only meaningful with [`Trigger::OnObs`]): "whoever is
    /// leader right now".
    ObsValue,
    /// The process that took the step that fired the trigger (only
    /// meaningful with post-step triggers): "whoever just invoked".
    Stepper,
}

/// When a fault event fires. Every event fires at most once.
#[derive(Clone, PartialEq, Debug)]
pub enum Trigger {
    /// At global time `t`, before the step at `t` is scheduled.
    At(u64),
    /// On the first observation with key `key` recorded at time ≥ `at`.
    /// If the action targets [`FaultTarget::ObsValue`], only observations
    /// with a non-negative value fire (a `leader = ?` announcement names
    /// nobody and leaves the trigger armed).
    OnObs {
        /// Earliest time the trigger may fire.
        at: u64,
        /// Observation key to watch (e.g. `"leader"`).
        key: String,
    },
    /// On the first step after which the registered gauge `gauge` is at
    /// least `min`, checked from time `at` on. With the in-flight gauges
    /// of `tbwf-registers` this fires exactly on an invocation step,
    /// before the matching completion.
    OnGauge {
        /// Earliest time the trigger may fire.
        at: u64,
        /// Name of a gauge registered with [`Nemesis::register_gauge`].
        gauge: String,
        /// Threshold; fires when `gauge ≥ min`.
        min: i64,
    },
}

impl Trigger {
    fn is_post_step(&self) -> bool {
        matches!(self, Trigger::OnObs { .. } | Trigger::OnGauge { .. })
    }
}

/// What a fault event does when it fires.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultAction {
    /// Crash the target process (it is never scheduled again).
    Crash(FaultTarget),
    /// Set a registered boolean switch (e.g. an Ω∆ candidate flag).
    SetSwitch {
        /// Name of a switch registered with [`Nemesis::register_switch`].
        switch: String,
        /// The value to set.
        on: bool,
    },
    /// Set a registered integer dial (e.g. a register policy dial).
    SetDial {
        /// Name of a dial registered with [`Nemesis::register_dial`].
        dial: String,
        /// The value to set.
        value: i64,
    },
    /// Remove the target from the schedule's timely set (its step gaps
    /// start doubling: correct but no longer timely).
    Demote(FaultTarget),
    /// Undo a [`FaultAction::Demote`].
    Promote(FaultTarget),
    /// Start flickering the target: bursts of steps separated by growing
    /// silences.
    FlickerStart(FaultTarget),
    /// Stop flickering the target.
    FlickerStop(FaultTarget),
}

impl FaultAction {
    fn target(&self) -> Option<FaultTarget> {
        match self {
            FaultAction::Crash(t)
            | FaultAction::Demote(t)
            | FaultAction::Promote(t)
            | FaultAction::FlickerStart(t)
            | FaultAction::FlickerStop(t) => Some(*t),
            FaultAction::SetSwitch { .. } | FaultAction::SetDial { .. } => None,
        }
    }

    fn needs_schedule_ctl(&self) -> bool {
        matches!(
            self,
            FaultAction::Demote(_)
                | FaultAction::Promote(_)
                | FaultAction::FlickerStart(_)
                | FaultAction::FlickerStop(_)
        )
    }
}

/// One injection: a trigger and the action it releases.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultEvent {
    /// When to fire.
    pub trigger: Trigger,
    /// What to do.
    pub action: FaultAction,
}

/// An ordered list of fault events; the unit the delta-debugging
/// shrinker minimizes.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultPlan {
    /// The events; order is irrelevant to semantics (each fires on its
    /// own trigger) but preserved for reproducibility of artifacts.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an event (builder style).
    #[must_use]
    pub fn with(mut self, trigger: Trigger, action: FaultAction) -> Self {
        self.events.push(FaultEvent { trigger, action });
        self
    }

    /// Serializes the plan to a JSON value (see `DESIGN.md` for the
    /// artifact format).
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events.iter().map(event_to_json).collect())
    }

    /// Parses a plan serialized by [`FaultPlan::to_json`].
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let arr = v.as_arr().ok_or("fault plan must be an array")?;
        let events = arr.iter().map(event_from_json).collect::<Result<_, _>>()?;
        Ok(FaultPlan { events })
    }
}

fn target_to_json(t: FaultTarget) -> Json {
    match t {
        FaultTarget::Proc(p) => Json::Int(p as i128),
        FaultTarget::ObsValue => Json::str("obs_value"),
        FaultTarget::Stepper => Json::str("stepper"),
    }
}

fn target_from_json(v: &Json) -> Result<FaultTarget, String> {
    if let Some(p) = v.as_u64() {
        return Ok(FaultTarget::Proc(p as usize));
    }
    match v.as_str() {
        Some("obs_value") => Ok(FaultTarget::ObsValue),
        Some("stepper") => Ok(FaultTarget::Stepper),
        _ => Err(format!("bad fault target: {v:?}")),
    }
}

fn event_to_json(e: &FaultEvent) -> Json {
    let trigger = match &e.trigger {
        Trigger::At(t) => Json::obj([("at", Json::Int(*t as i128))]),
        Trigger::OnObs { at, key } => Json::obj([(
            "on_obs",
            Json::obj([
                ("at", Json::Int(*at as i128)),
                ("key", Json::str(key.clone())),
            ]),
        )]),
        Trigger::OnGauge { at, gauge, min } => Json::obj([(
            "on_gauge",
            Json::obj([
                ("at", Json::Int(*at as i128)),
                ("gauge", Json::str(gauge.clone())),
                ("min", Json::Int(*min as i128)),
            ]),
        )]),
    };
    let action = match &e.action {
        FaultAction::Crash(t) => Json::obj([("crash", target_to_json(*t))]),
        FaultAction::SetSwitch { switch, on } => Json::obj([(
            "set_switch",
            Json::obj([
                ("switch", Json::str(switch.clone())),
                ("on", Json::Bool(*on)),
            ]),
        )]),
        FaultAction::SetDial { dial, value } => Json::obj([(
            "set_dial",
            Json::obj([
                ("dial", Json::str(dial.clone())),
                ("value", Json::Int(*value as i128)),
            ]),
        )]),
        FaultAction::Demote(t) => Json::obj([("demote", target_to_json(*t))]),
        FaultAction::Promote(t) => Json::obj([("promote", target_to_json(*t))]),
        FaultAction::FlickerStart(t) => Json::obj([("flicker_start", target_to_json(*t))]),
        FaultAction::FlickerStop(t) => Json::obj([("flicker_stop", target_to_json(*t))]),
    };
    Json::obj([("trigger", trigger), ("action", action)])
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("key {key:?} must be a u64"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| format!("key {key:?} must be a string"))?
        .to_string())
}

fn event_from_json(v: &Json) -> Result<FaultEvent, String> {
    let tv = req(v, "trigger")?;
    let trigger = if let Some(at) = tv.get("at") {
        Trigger::At(at.as_u64().ok_or("\"at\" must be a u64")?)
    } else if let Some(oo) = tv.get("on_obs") {
        Trigger::OnObs {
            at: req_u64(oo, "at")?,
            key: req_str(oo, "key")?,
        }
    } else if let Some(og) = tv.get("on_gauge") {
        Trigger::OnGauge {
            at: req_u64(og, "at")?,
            gauge: req_str(og, "gauge")?,
            min: req(og, "min")?.as_i64().ok_or("\"min\" must be an i64")?,
        }
    } else {
        return Err(format!("unknown trigger: {tv:?}"));
    };
    let av = req(v, "action")?;
    let action = if let Some(t) = av.get("crash") {
        FaultAction::Crash(target_from_json(t)?)
    } else if let Some(ss) = av.get("set_switch") {
        FaultAction::SetSwitch {
            switch: req_str(ss, "switch")?,
            on: req(ss, "on")?.as_bool().ok_or("\"on\" must be a bool")?,
        }
    } else if let Some(sd) = av.get("set_dial") {
        FaultAction::SetDial {
            dial: req_str(sd, "dial")?,
            value: req(sd, "value")?
                .as_i64()
                .ok_or("\"value\" must be an i64")?,
        }
    } else if let Some(t) = av.get("demote") {
        FaultAction::Demote(target_from_json(t)?)
    } else if let Some(t) = av.get("promote") {
        FaultAction::Promote(target_from_json(t)?)
    } else if let Some(t) = av.get("flicker_start") {
        FaultAction::FlickerStart(target_from_json(t)?)
    } else if let Some(t) = av.get("flicker_stop") {
        FaultAction::FlickerStop(target_from_json(t)?)
    } else {
        return Err(format!("unknown action: {av:?}"));
    };
    Ok(FaultEvent { trigger, action })
}

/// One applied injection, recorded into the trace for diagnostics and
/// repro artifacts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectionRecord {
    /// Global time of the injection.
    pub time: u64,
    /// Index of the fault event in the plan.
    pub event: usize,
    /// Human-readable description of what was applied.
    pub desc: String,
}

/// The runtime that drives a [`FaultPlan`] during a run.
///
/// Build it from a plan, register every switch/dial/gauge the plan
/// refers to (and attach a [`ScheduleCtl`] if the plan perturbs the
/// schedule), then hand it to
/// [`RunConfig::with_nemesis`](crate::RunConfig::with_nemesis). The
/// runner polls it; user code never calls the poll methods directly.
pub struct Nemesis {
    plan: FaultPlan,
    fired: Vec<bool>,
    switches: BTreeMap<String, Local<bool>>,
    dials: BTreeMap<String, Local<i64>>,
    gauges: BTreeMap<String, Local<i64>>,
    sched: Option<ScheduleCtl>,
    injections: Vec<InjectionRecord>,
    /// What the polls must look at; recomputed whenever an event fires.
    armed: Armed,
}

/// What of a plan's unfired events a poll has to look at.
struct Armed {
    /// Earliest unfired [`Trigger::At`] time (`u64::MAX` if none).
    next_at: u64,
    /// Any unfired [`Trigger::OnObs`]?
    obs: bool,
    /// Any unfired [`Trigger::OnGauge`]?
    gauge: bool,
}

impl Armed {
    fn of(plan: &FaultPlan, fired: &[bool]) -> Armed {
        let mut armed = Armed {
            next_at: u64::MAX,
            obs: false,
            gauge: false,
        };
        for (e, &f) in plan.events.iter().zip(fired) {
            if f {
                continue;
            }
            match e.trigger {
                Trigger::At(at) => armed.next_at = armed.next_at.min(at),
                Trigger::OnObs { .. } => armed.obs = true,
                Trigger::OnGauge { .. } => armed.gauge = true,
            }
        }
        armed
    }
}

impl Nemesis {
    /// Creates the runtime for `plan` with no registrations.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.events.len()];
        let armed = Armed::of(&plan, &fired);
        Nemesis {
            plan,
            fired,
            switches: BTreeMap::new(),
            dials: BTreeMap::new(),
            gauges: BTreeMap::new(),
            sched: None,
            injections: Vec::new(),
            armed,
        }
    }

    /// The plan this nemesis executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Appends an event to the plan before the run starts.
    pub(crate) fn push(&mut self, event: FaultEvent) {
        self.plan.events.push(event);
        self.fired.push(false);
        self.armed = Armed::of(&self.plan, &self.fired);
    }

    /// Merges `earlier` into this nemesis before the run starts: its
    /// switches, dials, gauges and schedule control are kept where this
    /// nemesis registers none of the same name, and its plan's events are
    /// returned for the caller to append.
    pub(crate) fn absorb(&mut self, earlier: Nemesis) -> Vec<FaultEvent> {
        for (name, switch) in earlier.switches {
            self.switches.entry(name).or_insert(switch);
        }
        for (name, dial) in earlier.dials {
            self.dials.entry(name).or_insert(dial);
        }
        for (name, gauge) in earlier.gauges {
            self.gauges.entry(name).or_insert(gauge);
        }
        if self.sched.is_none() {
            self.sched = earlier.sched;
        }
        earlier.plan.events
    }

    /// Registers a boolean switch that [`FaultAction::SetSwitch`] can
    /// flip (e.g. the desired-candidacy flag of an Ω∆ driver).
    pub fn register_switch(&mut self, name: &str, switch: Local<bool>) {
        self.switches.insert(name.to_string(), switch);
    }

    /// Registers an integer dial that [`FaultAction::SetDial`] can set
    /// (e.g. a register policy dial).
    pub fn register_dial(&mut self, name: &str, dial: Local<i64>) {
        self.dials.insert(name.to_string(), dial);
    }

    /// Registers a read-only gauge that [`Trigger::OnGauge`] can watch
    /// (e.g. a per-process in-flight-operation counter).
    pub fn register_gauge(&mut self, name: &str, gauge: Local<i64>) {
        self.gauges.insert(name.to_string(), gauge);
    }

    /// Attaches the control handle of a
    /// [`NemesisSchedule`](crate::schedule::NemesisSchedule), enabling
    /// demote/promote/flicker actions.
    pub fn control_schedule(&mut self, ctl: ScheduleCtl) {
        self.sched = Some(ctl);
    }

    /// Checks the plan against a system of `n` processes and against
    /// what is registered: every targeted process is in range, every
    /// switch, dial and gauge name is registered, trigger/target pairs
    /// are compatible, and schedule actions have a [`ScheduleCtl`].
    /// [`Sim::run`](crate::Sim::run) panics on a plan that fails this
    /// check, so callers reading a plan from outside should check first.
    ///
    /// # Errors
    ///
    /// Describes the first offending event.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (i, e) in self.plan.events.iter().enumerate() {
            if let Some(FaultTarget::Proc(p)) = e.action.target() {
                if p >= n {
                    return Err(format!(
                        "event {i}: target process {p} out of range (n={n})"
                    ));
                }
            }
            match e.action.target() {
                Some(FaultTarget::ObsValue) if !matches!(e.trigger, Trigger::OnObs { .. }) => {
                    return Err(format!(
                        "event {i}: ObsValue target requires an OnObs trigger"
                    ));
                }
                Some(FaultTarget::Stepper) if !e.trigger.is_post_step() => {
                    return Err(format!(
                        "event {i}: Stepper target requires a post-step trigger"
                    ));
                }
                _ => {}
            }
            match &e.action {
                FaultAction::SetSwitch { switch, .. } if !self.switches.contains_key(switch) => {
                    return Err(format!("event {i}: switch {switch:?} not registered"));
                }
                FaultAction::SetDial { dial, .. } if !self.dials.contains_key(dial) => {
                    return Err(format!("event {i}: dial {dial:?} not registered"));
                }
                a if a.needs_schedule_ctl() && self.sched.is_none() => {
                    return Err(format!(
                        "event {i}: schedule action without a ScheduleCtl attached"
                    ));
                }
                _ => {}
            }
            if let Trigger::OnGauge { gauge, .. } = &e.trigger {
                if !self.gauges.contains_key(gauge) {
                    return Err(format!("event {i}: gauge {gauge:?} not registered"));
                }
            }
        }
        Ok(())
    }

    /// Whether an unfired [`Trigger::OnObs`] remains: only then does the
    /// runner pay for collecting the granted step's observations.
    pub(crate) fn wants_obs(&self) -> bool {
        self.armed.obs
    }

    /// Pre-step poll: fires [`Trigger::At`] events. Non-crash actions are
    /// applied internally; requested crashes are appended to `crashes`
    /// for the runner to apply.
    #[inline]
    pub(crate) fn poll_pre(&mut self, t: u64, crashes: &mut Vec<ProcId>) {
        if t >= self.armed.next_at {
            self.scan_pre(t, crashes);
        }
    }

    fn scan_pre(&mut self, t: u64, crashes: &mut Vec<ProcId>) {
        for i in 0..self.plan.events.len() {
            if self.fired[i] {
                continue;
            }
            if matches!(self.plan.events[i].trigger, Trigger::At(at) if at <= t) {
                self.fire(i, t, None, crashes);
            }
        }
    }

    /// Post-step poll: fires [`Trigger::OnObs`] / [`Trigger::OnGauge`]
    /// events after `stepper` took the step at time `t`, with the
    /// observations that step recorded. Requested crashes are appended to
    /// `crashes`.
    #[inline]
    pub(crate) fn poll_post(
        &mut self,
        t: u64,
        stepper: ProcId,
        new_obs: &[Obs],
        crashes: &mut Vec<ProcId>,
    ) {
        // An OnObs trigger can only fire on a step that observed something.
        if self.armed.gauge || (self.armed.obs && !new_obs.is_empty()) {
            self.scan_post(t, stepper, new_obs, crashes);
        }
    }

    fn scan_post(&mut self, t: u64, stepper: ProcId, new_obs: &[Obs], crashes: &mut Vec<ProcId>) {
        for i in 0..self.plan.events.len() {
            if self.fired[i] {
                continue;
            }
            let ev = &self.plan.events[i];
            match &ev.trigger {
                Trigger::OnObs { at, key } => {
                    let wants_value = ev.action.target() == Some(FaultTarget::ObsValue);
                    let hit = new_obs
                        .iter()
                        .find(|o| o.time >= *at && o.key == key && (!wants_value || o.value >= 0));
                    if let Some(o) = hit {
                        let named = usize::try_from(o.value).ok();
                        self.fire_with(i, t, Some(stepper), named, crashes);
                    }
                }
                Trigger::OnGauge { at, gauge, min } => {
                    let val = self.gauges.get(gauge).map(Local::get);
                    if t >= *at && val.is_some_and(|v| v >= *min) {
                        self.fire(i, t, Some(stepper), crashes);
                    }
                }
                _ => {}
            }
        }
    }

    fn fire(&mut self, i: usize, t: u64, stepper: Option<ProcId>, crashes: &mut Vec<ProcId>) {
        self.fire_with(i, t, stepper, None, crashes);
    }

    fn fire_with(
        &mut self,
        i: usize,
        t: u64,
        stepper: Option<ProcId>,
        obs_value: Option<usize>,
        crashes: &mut Vec<ProcId>,
    ) {
        self.fired[i] = true;
        self.armed = Armed::of(&self.plan, &self.fired);
        let action = self.plan.events[i].action.clone();
        let resolve = |target: FaultTarget| -> Option<ProcId> {
            match target {
                FaultTarget::Proc(p) => Some(ProcId(p)),
                FaultTarget::ObsValue => obs_value.map(ProcId),
                FaultTarget::Stepper => stepper,
            }
        };
        let desc = match &action {
            FaultAction::Crash(tgt) => {
                if let Some(p) = resolve(*tgt) {
                    crashes.push(p);
                    format!("crash p{}", p.0)
                } else {
                    "crash <unresolved>".to_string()
                }
            }
            FaultAction::SetSwitch { switch, on } => {
                self.switches[switch].set(*on);
                format!("switch {switch} := {on}")
            }
            FaultAction::SetDial { dial, value } => {
                self.dials[dial].set(*value);
                format!("dial {dial} := {value}")
            }
            FaultAction::Demote(tgt) => {
                if let (Some(p), Some(s)) = (resolve(*tgt), self.sched.as_ref()) {
                    s.demote(p);
                    format!("demote p{}", p.0)
                } else {
                    "demote <unresolved>".to_string()
                }
            }
            FaultAction::Promote(tgt) => {
                if let (Some(p), Some(s)) = (resolve(*tgt), self.sched.as_ref()) {
                    s.promote(p);
                    format!("promote p{}", p.0)
                } else {
                    "promote <unresolved>".to_string()
                }
            }
            FaultAction::FlickerStart(tgt) => {
                if let (Some(p), Some(s)) = (resolve(*tgt), self.sched.as_ref()) {
                    s.flicker_start(p);
                    format!("flicker-start p{}", p.0)
                } else {
                    "flicker-start <unresolved>".to_string()
                }
            }
            FaultAction::FlickerStop(tgt) => {
                if let (Some(p), Some(s)) = (resolve(*tgt), self.sched.as_ref()) {
                    s.flicker_stop(p);
                    format!("flicker-stop p{}", p.0)
                } else {
                    "flicker-stop <unresolved>".to_string()
                }
            }
        };
        self.injections.push(InjectionRecord {
            time: t,
            event: i,
            desc,
        });
    }

    /// Consumes the record of applied injections (called at teardown).
    pub(crate) fn take_injections(&mut self) -> Vec<InjectionRecord> {
        std::mem::take(&mut self.injections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the pre-step poll and returns the crashes it requested.
    fn pre(nem: &mut Nemesis, t: u64) -> Vec<ProcId> {
        let mut crashes = Vec::new();
        nem.poll_pre(t, &mut crashes);
        crashes
    }

    /// Runs the post-step poll and returns the crashes it requested.
    fn post(nem: &mut Nemesis, t: u64, stepper: ProcId, new_obs: &[Obs]) -> Vec<ProcId> {
        let mut crashes = Vec::new();
        nem.poll_post(t, stepper, new_obs, &mut crashes);
        crashes
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
            .with(Trigger::At(100), FaultAction::Crash(FaultTarget::Proc(2)))
            .with(
                Trigger::OnObs {
                    at: 50,
                    key: "leader".to_string(),
                },
                FaultAction::Crash(FaultTarget::ObsValue),
            )
            .with(
                Trigger::OnGauge {
                    at: 0,
                    gauge: "inflight[1]".to_string(),
                    min: 1,
                },
                FaultAction::Crash(FaultTarget::Stepper),
            )
            .with(
                Trigger::At(7),
                FaultAction::SetSwitch {
                    switch: "cand[0]".to_string(),
                    on: false,
                },
            )
            .with(
                Trigger::At(10),
                FaultAction::SetDial {
                    dial: "registers".to_string(),
                    value: 2,
                },
            )
            .with(Trigger::At(20), FaultAction::Demote(FaultTarget::Proc(1)))
            .with(
                Trigger::At(30),
                FaultAction::FlickerStart(FaultTarget::Proc(0)),
            )
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = sample_plan();
        let text = plan.to_json().to_string_pretty();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let plan = FaultPlan::new().with(Trigger::At(0), FaultAction::Crash(FaultTarget::Proc(5)));
        let nem = Nemesis::new(plan);
        let err = nem.validate(3).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn validate_rejects_unregistered_names() {
        let plan = FaultPlan::new().with(
            Trigger::At(0),
            FaultAction::SetSwitch {
                switch: "nope".to_string(),
                on: true,
            },
        );
        assert!(Nemesis::new(plan)
            .validate(2)
            .unwrap_err()
            .contains("not registered"));

        let plan = FaultPlan::new().with(
            Trigger::OnGauge {
                at: 0,
                gauge: "nope".to_string(),
                min: 1,
            },
            FaultAction::Crash(FaultTarget::Stepper),
        );
        assert!(Nemesis::new(plan)
            .validate(2)
            .unwrap_err()
            .contains("not registered"));
    }

    #[test]
    fn validate_rejects_obs_value_without_on_obs() {
        let plan = FaultPlan::new().with(Trigger::At(0), FaultAction::Crash(FaultTarget::ObsValue));
        let err = Nemesis::new(plan).validate(2).unwrap_err();
        assert!(err.contains("OnObs"), "{err}");
    }

    #[test]
    fn validate_rejects_schedule_actions_without_ctl() {
        let plan = FaultPlan::new().with(Trigger::At(0), FaultAction::Demote(FaultTarget::Proc(0)));
        let err = Nemesis::new(plan).validate(2).unwrap_err();
        assert!(err.contains("ScheduleCtl"), "{err}");
    }

    #[test]
    fn pre_poll_fires_time_and_step_triggers_once() {
        let plan = FaultPlan::new()
            .with(Trigger::At(5), FaultAction::Crash(FaultTarget::Proc(1)))
            .with(Trigger::At(7), FaultAction::Crash(FaultTarget::Proc(0)));
        let mut nem = Nemesis::new(plan);
        nem.validate(2).unwrap();
        assert!(pre(&mut nem, 4).is_empty());
        assert_eq!(pre(&mut nem, 5), vec![ProcId(1)]);
        assert!(pre(&mut nem, 6).is_empty(), "fired events stay fired");
        assert_eq!(pre(&mut nem, 7), vec![ProcId(0)]);
        assert!(pre(&mut nem, 8).is_empty());
        assert_eq!(nem.take_injections().len(), 2);
    }

    #[test]
    fn on_obs_crashes_the_named_process() {
        let plan = sample_plan();
        let mut nem = Nemesis::new(plan);
        let obs = |time, value| Obs {
            time,
            proc: ProcId(0),
            key: "leader",
            idx: 0,
            value,
        };
        // Too early, and `?` (-1) never names a victim.
        assert!(post(&mut nem, 40, ProcId(0), &[obs(40, 1)]).is_empty());
        assert!(post(&mut nem, 60, ProcId(0), &[obs(60, -1)]).is_empty());
        // A real announcement names the victim.
        assert_eq!(
            post(&mut nem, 70, ProcId(0), &[obs(70, 1)]),
            vec![ProcId(1)]
        );
    }

    #[test]
    fn on_gauge_crashes_the_stepper() {
        let plan = FaultPlan::new().with(
            Trigger::OnGauge {
                at: 0,
                gauge: "g".to_string(),
                min: 1,
            },
            FaultAction::Crash(FaultTarget::Stepper),
        );
        let mut nem = Nemesis::new(plan);
        let g = Local::new(0);
        nem.register_gauge("g", g.clone());
        nem.validate(3).unwrap();
        assert!(post(&mut nem, 1, ProcId(2), &[]).is_empty());
        g.set(1);
        assert_eq!(post(&mut nem, 2, ProcId(2), &[]), vec![ProcId(2)]);
        let inj = nem.take_injections();
        assert_eq!(inj.len(), 1);
        assert_eq!(inj[0].desc, "crash p2");
    }

    #[test]
    fn switch_and_dial_actions_apply() {
        let plan = FaultPlan::new()
            .with(
                Trigger::At(0),
                FaultAction::SetSwitch {
                    switch: "s".to_string(),
                    on: false,
                },
            )
            .with(
                Trigger::At(0),
                FaultAction::SetDial {
                    dial: "d".to_string(),
                    value: 7,
                },
            );
        let mut nem = Nemesis::new(plan);
        let s = Local::new(true);
        let d = Local::new(0);
        nem.register_switch("s", s.clone());
        nem.register_dial("d", d.clone());
        nem.validate(1).unwrap();
        assert!(pre(&mut nem, 0).is_empty());
        assert!(!s.get());
        assert_eq!(d.get(), 7);
    }

    fn dial_plan(triggers: &[Trigger]) -> (Nemesis, Local<i64>) {
        let mut plan = FaultPlan::new();
        for (i, trig) in triggers.iter().enumerate() {
            plan = plan.with(
                trig.clone(),
                FaultAction::SetDial {
                    dial: "d".to_string(),
                    value: i as i64 + 1,
                },
            );
        }
        let mut nem = Nemesis::new(plan);
        let d = Local::new(0);
        nem.register_dial("d", d.clone());
        nem.register_gauge("g", Local::new(1));
        nem.validate(2).unwrap();
        (nem, d)
    }

    #[test]
    fn at_fires_exactly_at_its_time() {
        let (mut nem, d) = dial_plan(&[Trigger::At(5), Trigger::At(9)]);
        for t in 0..5 {
            assert!(pre(&mut nem, t).is_empty());
            assert_eq!(d.get(), 0, "fired early at t = {t}");
        }
        pre(&mut nem, 5);
        assert_eq!(d.get(), 1);
        for t in 6..9 {
            pre(&mut nem, t);
            assert_eq!(d.get(), 1, "second event early at t = {t}");
        }
        pre(&mut nem, 9);
        assert_eq!(d.get(), 2);
        let times: Vec<u64> = nem.take_injections().iter().map(|r| r.time).collect();
        assert_eq!(times, vec![5, 9]);
    }

    #[test]
    fn wants_obs_turns_false_once_the_last_on_obs_fires() {
        let on = |key: &str| Trigger::OnObs {
            at: 0,
            key: key.to_string(),
        };
        let (mut nem, _) = dial_plan(&[on("a"), Trigger::At(1_000), on("b")]);
        let obs = |key| Obs {
            time: 3,
            proc: ProcId(0),
            key,
            idx: 0,
            value: 0,
        };
        assert!(nem.wants_obs());
        post(&mut nem, 3, ProcId(0), &[obs("a")]);
        assert!(nem.wants_obs(), "the OnObs(b) event is still armed");
        post(&mut nem, 4, ProcId(0), &[]);
        assert!(nem.wants_obs());
        post(&mut nem, 5, ProcId(0), &[obs("b")]);
        assert!(!nem.wants_obs());
        assert_eq!(nem.take_injections().len(), 2);
    }

    #[test]
    fn disarmed_poll_pre_fires_nothing() {
        let (mut nem, d) = dial_plan(&[
            Trigger::At(2),
            Trigger::At(1),
            Trigger::OnGauge {
                at: 0,
                gauge: "g".to_string(),
                min: 1,
            },
        ]);
        pre(&mut nem, 2);
        assert_eq!(nem.take_injections().len(), 2);
        // Every pre-step trigger has fired: no later time re-arms them,
        // and the pre-step poll leaves the post-step event alone.
        for t in [3, 1 << 40, u64::MAX] {
            let mut crashes = vec![ProcId(7)];
            nem.poll_pre(t, &mut crashes);
            assert_eq!(crashes, vec![ProcId(7)], "the buffer is only appended to");
        }
        assert!(nem.take_injections().is_empty());
        assert_eq!(d.get(), 2);
        post(&mut nem, 4, ProcId(1), &[]);
        assert_eq!(d.get(), 3);
    }
}
