//! Debug-build SimSanitizer integration: lifecycle violations on real
//! handle types (I/OAT descriptors minted by the engine, skbuffs,
//! pinned regions) must panic with the allocation site, and clean
//! workloads must pass the teardown quiesce check.
//!
//! Everything here is `debug_assertions`-gated — in release builds the
//! sanitizer is a zero-sized no-op and these scenarios are
//! unobservable by design.
#![cfg(debug_assertions)]

use openmx_repro::ethernet::Skbuff;
use openmx_repro::hw::{HwParams, IoatEngine};
use openmx_repro::sim::sanitize::{Kind, SimSanitizer};
use openmx_repro::sim::Ps;

#[test]
#[should_panic(expected = "double-complete")]
fn double_complete_of_ioat_descriptor_is_caught() {
    // The real submission path: the engine mints the descriptor token
    // in the submitted state. A driver bug that reaps the same
    // completion twice must be caught on the spot.
    let hw = HwParams::default();
    let mut e = IoatEngine::new(&hw);
    let h = e.submit(&hw, Ps::ZERO, 0, 64 << 10, 16);
    SimSanitizer::complete(h.san);
    SimSanitizer::complete(h.san);
}

#[test]
#[should_panic(expected = "use-after-release")]
fn use_after_release_of_descriptor_is_caught() {
    let hw = HwParams::default();
    let mut e = IoatEngine::new(&hw);
    let h = e.submit(&hw, Ps::ZERO, 0, 4096, 1);
    SimSanitizer::complete(h.san);
    SimSanitizer::release(h.san);
    SimSanitizer::complete(h.san);
}

#[test]
#[should_panic(expected = "not released at teardown")]
fn leaked_skbuff_fails_teardown() {
    let skb = Skbuff::new(
        0,
        Default::default(),
        bytes::Bytes::from(vec![0u8; 128]),
        Ps::ZERO,
    );
    SimSanitizer::submit(skb.token());
    // Nobody completes/releases the skbuff: teardown must name it.
    SimSanitizer::assert_quiesced();
}

#[test]
fn clean_lifecycle_passes_teardown() {
    let t = SimSanitizer::alloc(Kind::PullHandle);
    SimSanitizer::submit(t);
    SimSanitizer::complete(t);
    SimSanitizer::release(t);
    SimSanitizer::assert_quiesced();
}

#[test]
fn panic_message_names_the_allocation_site() {
    let hw = HwParams::default();
    let result = std::panic::catch_unwind(|| {
        let mut e = IoatEngine::new(&hw);
        let h = e.submit(&hw, Ps::ZERO, 0, 4096, 1);
        SimSanitizer::complete(h.san);
        SimSanitizer::complete(h.san);
    });
    let err = result.expect_err("double-complete must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("sanitizer.rs"),
        "panic must point at the allocation site, got: {msg}"
    );
    // The failed thread-local registry still holds the released entry;
    // clear it so this test's state cannot leak into assertions run
    // later on the same test thread.
    SimSanitizer::clear();
}
