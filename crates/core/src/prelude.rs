//! One-stop imports for users of the TBWF workspace.

pub use crate::linearize::{assert_run_linearizable, check_linearizable, HistoryEvent};
pub use crate::system::{
    run_counter_workload, Engine, OpResult, TbwfRun, TbwfSystemBuilder, Workload, WorkloadConfig,
    OBS_COMPLETED,
};
pub use crate::types::{
    CasObject, CasOp, CasResp, Consensus, ConsensusOp, ConsensusResp, Deque, DequeOp, DequeResp,
    FetchAdd, FetchAddOp, Queue, QueueOp, QueueResp, RegFile, RegFileOp, RegFileResp, Snapshot,
    SnapshotOp, SnapshotResp, Stack, StackOp, StackResp,
};

pub use tbwf_sim::schedule::{
    Flicker, PartiallySynchronous, RoundRobin, Schedule, Scripted, SeededRandom, SoloAfter,
    Weighted,
};
pub use tbwf_sim::{
    step, Control, Env, FutureTask, Local, ProcId, RunConfig, RunReport, SimBuilder, StepCtx,
    Stepper,
};

pub use tbwf_registers::{
    AbortPolicy, AbortableRegister, AtomicRegister, EffectPolicy, ReadOutcome, RegisterFactory,
    RegisterFactoryConfig, WriteOutcome,
};

pub use tbwf_monitor::{activity_monitor, MonitorMesh, Status};

pub use tbwf_omega::{
    check_spec, run_omega_system, CandidateScript, OmegaHandles, OmegaKind, OmegaRunData,
    OmegaSystemConfig,
};

pub use tbwf_universal::baselines::{
    invoke_flms, invoke_obstruction_free, CasUniversal, FlmsShared,
};
pub use tbwf_universal::object::{Counter, CounterOp};
pub use tbwf_universal::tbwf::invoke_tbwf;
pub use tbwf_universal::{ObjectType, Outcome, QaObject, QaSession};
