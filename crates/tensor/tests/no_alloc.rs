//! `infer.rs` promises that steady-state serving allocates nothing: every
//! output and every scratch buffer comes from the `InferCtx` arena. This
//! file makes the promise a property — a counting global allocator, and
//! each `Exec` op the encoder uses run again on a context that has seen
//! it once; the warm run (same shapes) must not reach the heap at all.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_tensor::{Exec, InferCtx, Param, Shape, Tensor};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s own contract is what callers get; the counter
// is a side effect on an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn randn(shape: Shape, seed: u64) -> Tensor {
    Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
}

fn param(value: &Tensor) -> Param<'_> {
    Param { id: 0, value }
}

#[test]
fn warm_exec_ops_do_not_allocate() {
    // The encoder's shapes at b = 3: (B, L, D) activations, 4 heads.
    let (b, l, d, heads) = (3usize, 21usize, 32usize, 4usize);
    let lens = [21usize, 9, 16];
    let x = randn(Shape::d3(b, l, d), 1);
    let w = randn(Shape::d2(d, d), 2);
    let bias = randn(Shape::d1(d), 3);
    let (gamma_ln, beta_ln) = (randn(Shape::d1(d), 4), randn(Shape::d1(d), 5));
    let gamma = Tensor::scalar(0.5);
    let q = randn(Shape::d3(b * heads, l, d / heads), 6);
    let k = randn(Shape::d3(b * heads, l, d / heads), 7);
    let v = randn(Shape::d3(b * heads, l, d / heads), 8);
    let mut ctx = InferCtx::new();
    // Coefficients for the γ·A term and for `probs·V`, made once up front.
    let a_s = ctx.attention_probs(&q, &k, &lens);

    type Op<'a> = Box<dyn Fn(&mut InferCtx) -> Tensor + 'a>;
    let ops: Vec<(&str, Op)> = vec![
        (
            "linear",
            Box::new(|c| c.linear(&x, param(&w), Some(param(&bias)))),
        ),
        (
            "attention",
            Box::new(|c| c.attention(&q, &k, &v, &lens, None)),
        ),
        (
            "attention + γ·A",
            Box::new(|c| c.attention(&q, &k, &v, &lens, Some((&a_s, param(&gamma))))),
        ),
        (
            "attention_probs",
            Box::new(|c| c.attention_probs(&q, &k, &lens)),
        ),
        ("matmul (probs·V)", Box::new(|c| c.matmul(&a_s, &v, false))),
        (
            "split_heads",
            Box::new(|c| {
                let x = c.input(&x);
                c.split_heads(x, heads)
            }),
        ),
        (
            "merge_heads",
            Box::new(|c| {
                let q = c.input(&q);
                c.merge_heads(q, heads)
            }),
        ),
        (
            "layer_norm",
            Box::new(|c| {
                let x = c.input(&x);
                c.layer_norm(x, param(&gamma_ln), param(&beta_ln), 1e-5)
            }),
        ),
        (
            "mean_pool_masked",
            Box::new(|c| c.mean_pool_masked(&x, &lens)),
        ),
    ];
    let mut allocating = Vec::new();
    for (name, op) in &ops {
        // First call grows the arena (and, on a multi-lane host, the
        // pool's task queue); after it everything must be in place.
        let warm = op(&mut ctx);
        ctx.release(warm);
        // The counter is process-wide and other threads (the harness,
        // pool workers starting up) allocate on their own schedule: about
        // one run in thirty saw a stray count. So the warm call is
        // repeated and the quietest repeat must be silent — an op that
        // allocates does so on every call and cannot pass this way.
        let fewest = (0..5)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let out = op(&mut ctx);
                ctx.release(out);
                ALLOCATIONS.load(Ordering::Relaxed) - before
            })
            .min();
        if fewest != Some(0) {
            allocating.push(*name);
        }
    }
    assert!(
        allocating.is_empty(),
        "ops that allocate on a warm context: {allocating:?}"
    );
}
