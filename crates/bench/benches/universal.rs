//! B4–B6 — universal-construction costs: query-abortable operations
//! (solo), the full TBWF stack under contention, and the baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use tbwf_omega::OmegaKind;
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{FreeRunEnv, ProcId, RunConfig};
use tbwf_universal::baselines::CasUniversal;
use tbwf_universal::harness::{run_counter_workload, Engine, WorkloadConfig};
use tbwf_universal::object::{Counter, CounterOp};
use tbwf_universal::{Outcome, QaObject};

fn qa_solo_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("qa-object");
    g.bench_function("solo-inc", |b| {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = QaObject::new(Counter, 2, factory);
        let env = FreeRunEnv::new(ProcId(0));
        let mut session = obj.session(ProcId(0));
        b.iter(|| {
            // Solo fresh-slot applies always succeed in one invocation.
            session.begin_apply(CounterOp::Inc);
            let out = loop {
                if let Some(out) = session.poll_op(&env) {
                    break out;
                }
                env.advance();
            };
            match out {
                Outcome::Done(v) => v,
                other => panic!("solo apply must succeed, got {other:?}"),
            }
        })
    });
    g.bench_function("cas-universal-solo-inc", |b| {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = CasUniversal::new(Counter, 2, factory);
        let env = FreeRunEnv::new(ProcId(0));
        let mut session = obj.session(ProcId(0));
        b.iter(|| {
            session.begin_apply(CounterOp::Inc);
            loop {
                if let Some(v) = session.poll_op(&env) {
                    break v;
                }
                env.advance();
            }
        })
    });
    g.finish();
}

fn engine_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-run-100k-steps");
    g.sample_size(10).measurement_time(Duration::from_secs(15));
    let engines = [
        ("tbwf-atomic", Engine::Tbwf(OmegaKind::Atomic)),
        ("tbwf-abortable", Engine::Tbwf(OmegaKind::Abortable)),
        ("herlihy-cas", Engine::HerlihyCas),
        ("flms-boost", Engine::FlmsBoost),
    ];
    for (name, engine) in engines {
        g.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, &engine| {
            b.iter(|| {
                let cfg = WorkloadConfig {
                    n: 3,
                    engine,
                    ..Default::default()
                };
                let out = run_counter_workload(&cfg, RunConfig::new(100_000, RoundRobin::new()));
                out.report.assert_no_panics();
                out.completed.iter().sum::<u64>()
            })
        });
    }
    g.finish();
}

fn native_stack(c: &mut Criterion) {
    let mut g = c.benchmark_group("native-tbwf");
    g.sample_size(10).measurement_time(Duration::from_secs(10));
    // Real-thread throughput: one client hammering while the full
    // monitor + omega stack runs on background threads.
    g.bench_function("counter-inc-n2", |b| {
        let system = tbwf::native::NativeTbwf::start(Counter, 2, OmegaKind::Atomic);
        let mut client = system.client(0);
        // Warm up until leadership stabilizes.
        for _ in 0..50 {
            let _ = client.invoke(CounterOp::Inc).unwrap();
        }
        b.iter(|| client.invoke(CounterOp::Inc).unwrap());
        drop(client);
        system.shutdown();
    });
    g.finish();
}

criterion_group!(benches, qa_solo_ops, engine_runs, native_stack);
criterion_main!(benches);
