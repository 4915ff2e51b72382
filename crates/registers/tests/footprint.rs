//! Heap footprint of one register: the bytes a register keeps live after
//! a write and a read, counted by a global allocator.
//!
//! The file holds a single test, so no other test thread allocates while
//! the count runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use tbwf_registers::{OpToken, RegisterFactory};
use tbwf_sim::{Env, FreeRunEnv, ProcId};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const REGISTERS: usize = 10_000;

/// One solo operation: invoke, one step of the caller, complete.
fn solo<R>(
    env: &FreeRunEnv,
    invoke: impl FnOnce(&FreeRunEnv) -> OpToken,
    complete: impl FnOnce(&FreeRunEnv, OpToken) -> R,
) -> R {
    let tok = invoke(env);
    env.advance();
    complete(env, tok)
}

/// Live heap bytes per register that `make` leaves behind, `make` being
/// called once per register with the process that operates on it.
fn bytes_per_register<H>(mut make: impl FnMut(&FreeRunEnv) -> H) -> f64 {
    let envs: Vec<FreeRunEnv> = (0..4).map(|p| FreeRunEnv::new(ProcId(p))).collect();
    let mut handles = Vec::with_capacity(REGISTERS);
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..REGISTERS {
        handles.push(make(&envs[i % 4]));
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(handles.len(), REGISTERS);
    (after - before) as f64 / REGISTERS as f64
}

#[test]
fn a_register_keeps_at_most_half_the_heap_it_used_to() {
    let factory = RegisterFactory::default();
    for p in 0..4 {
        factory.inflight_gauge(ProcId(p));
    }

    let atomic = bytes_per_register(|env| {
        let r = factory.atomic("R", 0i64);
        solo(env, |e| r.invoke_write(e, 1), |e, t| r.complete_write(e, t));
        assert_eq!(
            solo(env, |e| r.invoke_read(e), |e, t| r.complete_read(e, t)),
            1
        );
        r
    });
    let abortable = bytes_per_register(|env| {
        let p = env.pid();
        let r = factory.abortable_swsr("R", 0i64, p, p);
        let w = solo(env, |e| r.invoke_write(e, 1), |e, t| r.complete_write(e, t));
        assert!(w.is_ok());
        let v = solo(env, |e| r.invoke_read(e), |e, t| r.complete_read(e, t));
        assert_eq!(v.value(), Some(1));
        r
    });
    println!("live heap per register: atomic {atomic:.1} B, abortable {abortable:.1} B");
    assert!(atomic <= 200.0, "atomic register keeps {atomic:.1} B");
    assert!(
        abortable <= 215.0,
        "abortable register keeps {abortable:.1} B"
    );
}
