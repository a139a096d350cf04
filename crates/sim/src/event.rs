//! Compact event closures for the engine's hot path.
//!
//! The previous engine boxed every event (`Box<dyn FnOnce>`): one heap
//! allocation per scheduled event, one free per executed event. Almost
//! every closure in the simulation captures at most a couple of ids and
//! a timestamp, so [`EventFn`] stores closures of up to three words
//! (24 bytes, alignment ≤ 8) inline in the event record itself. Larger
//! captures — up to [`SLOT_BYTES`] — go to a fixed-size slot recycled
//! through a free list ([`EventPool`]), so steady-state scheduling of
//! medium closures allocates nothing either. Only closures bigger than
//! a pool slot fall back to a plain `Box`.
//!
//! The representation is a hand-rolled vtable of exactly two function
//! pointers: `call` consumes the payload and runs it, `drop_fn` destroys
//! a payload that never ran (the simulator was dropped with events
//! still pending). The storage kind is baked into which monomorphized
//! thunk the pointers reference, so there is no discriminant byte and
//! `EventFn` is five words total.

use crate::engine::Sim;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

/// Words of inline closure storage.
const INLINE_WORDS: usize = 3;
/// Inline capacity in bytes: closures at most this big (and at most
/// word-aligned) are stored inside the event record.
pub const INLINE_BYTES: usize = INLINE_WORDS * size_of::<usize>();
/// Pooled-slot capacity in bytes: closures at most this big are stored
/// in a recycled [`EventPool`] slot.
pub const SLOT_BYTES: usize = 128;
/// Free-list depth; slots beyond this are returned to the allocator.
const POOL_CAP: usize = 256;

/// One recyclable closure slot ([`SLOT_BYTES`] bytes, word-aligned).
pub(crate) struct PoolSlot {
    _data: [MaybeUninit<usize>; SLOT_BYTES / size_of::<usize>()],
}

impl PoolSlot {
    fn new_boxed() -> Box<PoolSlot> {
        Box::new(PoolSlot {
            _data: [MaybeUninit::uninit(); SLOT_BYTES / size_of::<usize>()],
        })
    }
}

/// Free list of [`PoolSlot`]s. Slots are handed out raw; a slot is
/// owned either by the pool (on the free list) or by exactly one
/// pooled [`EventFn`], never both.
pub(crate) struct EventPool {
    free: Vec<*mut PoolSlot>,
}

impl EventPool {
    pub(crate) fn new() -> Self {
        EventPool { free: Vec::new() }
    }

    fn get(&mut self) -> *mut PoolSlot {
        self.free
            .pop()
            .unwrap_or_else(|| Box::into_raw(PoolSlot::new_boxed()))
    }

    /// Return a slot whose payload has already been moved out.
    pub(crate) fn put(&mut self, slot: *mut PoolSlot) {
        if self.free.len() < POOL_CAP {
            self.free.push(slot);
        } else {
            // SAFETY: `slot` came from `Box::into_raw` in `get` and the
            // payload was consumed by the caller; nothing else owns it.
            drop(unsafe { Box::from_raw(slot) });
        }
    }
}

impl Drop for EventPool {
    fn drop(&mut self) {
        for slot in self.free.drain(..) {
            // SAFETY: free-listed slots are empty and exclusively ours.
            drop(unsafe { Box::from_raw(slot) });
        }
    }
}

/// A scheduled closure in its compact representation. Semantically a
/// `FnOnce(&mut W, &mut Sim<W>)`: consumed by [`EventFn::invoke`], or
/// destroyed by `Drop` if it never runs.
pub(crate) struct EventFn<W> {
    data: [MaybeUninit<usize>; INLINE_WORDS],
    call: unsafe fn(*mut MaybeUninit<usize>, &mut W, &mut Sim<W>),
    drop_fn: unsafe fn(*mut MaybeUninit<usize>),
    /// `EventFn` may hold raw pointers to heap payloads: not Send/Sync.
    _mark: PhantomData<*mut W>,
}

impl<W> EventFn<W> {
    /// Pack `f`, choosing inline, pooled or boxed storage by size.
    #[inline]
    pub(crate) fn new<F>(f: F, pool: &mut EventPool) -> Self
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        let mut data = [MaybeUninit::uninit(); INLINE_WORDS];
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>() {
            // SAFETY: `f` fits the inline buffer in size and alignment;
            // the matching `call_inline::<W, F>` / `drop_inline::<F>`
            // thunks read it back with the same type exactly once.
            unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            EventFn {
                data,
                call: call_inline::<W, F>,
                drop_fn: drop_inline::<F>,
                _mark: PhantomData,
            }
        } else if size_of::<F>() <= SLOT_BYTES && align_of::<F>() <= align_of::<usize>() {
            let slot = pool.get();
            // SAFETY: `f` fits a slot; the slot is exclusively ours
            // until `call_pooled` recycles it or `drop_pooled` frees it.
            unsafe {
                ptr::write(slot.cast::<F>(), f);
                ptr::write(data.as_mut_ptr().cast::<*mut PoolSlot>(), slot);
            }
            EventFn {
                data,
                call: call_pooled::<W, F>,
                drop_fn: drop_pooled::<F>,
                _mark: PhantomData,
            }
        } else {
            // omx-lint: allow(hot-path-alloc) fallback for closures too big for a pool slot; the simulation's own closures all fit and recycle [test: crates/sim/tests/alloc_count.rs::pooled_closures_recycle_their_slots]
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin raw pointer fits one inline word.
            unsafe { ptr::write(data.as_mut_ptr().cast::<*mut F>(), raw) };
            EventFn {
                data,
                call: call_boxed::<W, F>,
                drop_fn: drop_boxed::<F>,
                _mark: PhantomData,
            }
        }
    }

    /// Run the closure, consuming the event.
    #[inline]
    pub(crate) fn invoke(self, world: &mut W, sim: &mut Sim<W>) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the payload is live (invoke takes `self` by value, so
        // it cannot have been consumed before) and `ManuallyDrop`
        // prevents the `Drop` impl from destroying it a second time.
        unsafe { (this.call)(this.data.as_mut_ptr(), world, sim) }
    }
}

impl<W> Drop for EventFn<W> {
    fn drop(&mut self) {
        // SAFETY: `Drop` only runs on events that were never invoked
        // (invoke wraps `self` in `ManuallyDrop`), so the payload is
        // still live and owned by us.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr()) }
    }
}

unsafe fn call_inline<W, F: FnOnce(&mut W, &mut Sim<W>)>(
    data: *mut MaybeUninit<usize>,
    world: &mut W,
    sim: &mut Sim<W>,
) {
    let f = ptr::read(data.cast::<F>());
    f(world, sim);
}

unsafe fn drop_inline<F>(data: *mut MaybeUninit<usize>) {
    ptr::drop_in_place(data.cast::<F>());
}

unsafe fn call_pooled<W, F: FnOnce(&mut W, &mut Sim<W>)>(
    data: *mut MaybeUninit<usize>,
    world: &mut W,
    sim: &mut Sim<W>,
) {
    let slot = ptr::read(data.cast::<*mut PoolSlot>());
    let f = ptr::read(slot.cast::<F>());
    // The payload has been moved out, so the slot can go straight back
    // on the free list — before running `f`, which may well schedule
    // new pooled events and want the warm slot.
    sim.recycle_slot(slot);
    f(world, sim);
}

unsafe fn drop_pooled<F>(data: *mut MaybeUninit<usize>) {
    let slot = ptr::read(data.cast::<*mut PoolSlot>());
    ptr::drop_in_place(slot.cast::<F>());
    // No pool access inside `Drop`: give the slot back to the
    // allocator instead of the free list. Teardown is a cold path.
    drop(Box::from_raw(slot));
}

unsafe fn call_boxed<W, F: FnOnce(&mut W, &mut Sim<W>)>(
    data: *mut MaybeUninit<usize>,
    world: &mut W,
    sim: &mut Sim<W>,
) {
    let f = Box::from_raw(ptr::read(data.cast::<*mut F>()));
    (*f)(world, sim);
}

unsafe fn drop_boxed<F>(data: *mut MaybeUninit<usize>) {
    drop(Box::from_raw(ptr::read(data.cast::<*mut F>())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn inline_pooled_and_boxed_all_invoke() {
        let mut pool = EventPool::new();
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut world: Vec<u64> = Vec::new();

        // Inline: captures 16 bytes.
        let (a, b) = (7u64, 35u64);
        let ev = EventFn::new(
            move |w: &mut Vec<u64>, _: &mut Sim<Vec<u64>>| w.push(a + b),
            &mut pool,
        );
        assert!(size_of::<(u64, u64)>() <= INLINE_BYTES);
        ev.invoke(&mut world, &mut sim);

        // Pooled: captures 64 bytes.
        let big = [1u64; 8];
        let ev = EventFn::new(
            move |w: &mut Vec<u64>, _: &mut Sim<Vec<u64>>| w.push(big.iter().sum()),
            &mut pool,
        );
        ev.invoke(&mut world, &mut sim);

        // Boxed: captures 256 bytes.
        let huge = [2u64; 32];
        let ev = EventFn::new(
            move |w: &mut Vec<u64>, _: &mut Sim<Vec<u64>>| w.push(huge.iter().sum()),
            &mut pool,
        );
        ev.invoke(&mut world, &mut sim);

        assert_eq!(world, vec![42, 8, 64]);
    }

    #[test]
    fn uninvoked_events_drop_their_captures() {
        // A capture with a destructor must be destroyed exactly once
        // when the event is dropped without running, for every storage
        // class.
        let witness: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
        struct Bump(Rc<RefCell<u32>>);
        impl Drop for Bump {
            fn drop(&mut self) {
                *self.0.borrow_mut() += 1;
            }
        }
        let mut pool = EventPool::new();
        // Inline (8 bytes), pooled (8 + 64), boxed (8 + 256).
        let bump = Bump(witness.clone());
        drop(EventFn::<()>::new(
            move |_: &mut (), _: &mut Sim<()>| drop(bump),
            &mut pool,
        ));
        let bump = (Bump(witness.clone()), [0u64; 8]);
        drop(EventFn::<()>::new(
            move |_: &mut (), _: &mut Sim<()>| drop(bump),
            &mut pool,
        ));
        let bump = (Bump(witness.clone()), [0u64; 32]);
        drop(EventFn::<()>::new(
            move |_: &mut (), _: &mut Sim<()>| drop(bump),
            &mut pool,
        ));
        assert_eq!(*witness.borrow(), 3);
        assert_eq!(Rc::strong_count(&witness), 1);
    }

    #[test]
    fn pool_recycles_slots() {
        let mut pool = EventPool::new();
        let a = pool.get();
        pool.put(a);
        let b = pool.get();
        assert_eq!(a, b, "free list must hand back the warm slot");
        pool.put(b);
    }
}
