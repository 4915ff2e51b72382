//! B1 — register operation costs: one solo invocation/response pair per
//! iteration, on each simulated register kind.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tbwf_registers::RegisterFactory;
use tbwf_sim::{FreeRunEnv, ProcId};

fn sim_registers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-registers");
    let factory = RegisterFactory::default();
    let env = FreeRunEnv::new(ProcId(0));

    let atomic = factory.atomic("A", 0i64);
    g.bench_function("atomic-write", |b| {
        b.iter(|| {
            let t = atomic.invoke_write(&env, black_box(1));
            env.advance();
            atomic.complete_write(&env, t)
        })
    });
    g.bench_function("atomic-read", |b| {
        b.iter(|| {
            let t = atomic.invoke_read(&env);
            env.advance();
            atomic.complete_read(&env, t)
        })
    });

    let abortable = factory.abortable("B", 0i64);
    g.bench_function("abortable-write-solo", |b| {
        b.iter(|| {
            let t = abortable.invoke_write(&env, black_box(1));
            env.advance();
            abortable.complete_write(&env, t)
        })
    });
    g.bench_function("abortable-read-solo", |b| {
        b.iter(|| {
            let t = abortable.invoke_read(&env);
            env.advance();
            abortable.complete_read(&env, t)
        })
    });

    let safe = factory.safe("S", 0);
    g.bench_function("safe-read", |b| {
        b.iter(|| {
            let t = safe.invoke_read(&env);
            env.advance();
            safe.complete_read(&env, t)
        })
    });

    let cas = factory.cas("C", 0i64);
    g.bench_function("cas", |b| {
        b.iter(|| {
            let t = cas.invoke(&env);
            env.advance();
            cas.complete_cas(&env, t, black_box(&0), black_box(0))
        })
    });
    g.finish();
}

criterion_group!(benches, sim_registers);
criterion_main!(benches);
