//! A counting global allocator, armed per thread: only allocations made
//! by the thread inside [`count`] are counted, so server or worker
//! threads running alongside cannot inflate a per-operation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting on armed threads.
pub struct Counting;

thread_local! {
    // Const-initialized and without destructors: touching them never
    // allocates, so the allocator can use them without recursing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the only addition is a thread-local counter
// update that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is forwarded verbatim from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with this `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: arguments are forwarded verbatim, and `ptr` came from
        // `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting armed on this thread and returns its result
/// with the number of allocations and reallocations it made.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, COUNT.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_the_armed_thread() {
        let (boxed, one) = count(|| std::hint::black_box(Box::new(5u64)));
        assert_eq!((*boxed, one), (5, 1));
        let ((), zero) = count(|| {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(zero, 0);
        // A child thread's allocations stay out; spawning it costs this
        // thread only a handful.
        let ((), spawn_only) = count(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        std::hint::black_box(Box::new(i));
                    }
                });
            });
        });
        assert!(spawn_only < 100, "{spawn_only}");
    }
}
