//! Debug-build lifecycle sanitizer for simulation resources.
//!
//! The end-of-run leak counters (a run report's `skbuffs_held` and
//! `pinned_regions`) can tell you *that* a resource drifted, but
//! not *which* allocation leaked or *where* it was misused. This
//! module upgrades those counters into precise diagnoses: every
//! skbuff, pinned region, I/OAT copy descriptor, pull handle and
//! promised bottom-half run carries a [`Token`] minted by
//! [`SimSanitizer::alloc`], and each
//! lifecycle transition is checked against the state machine
//!
//! ```text
//! allocated → submitted → completed → released
//! ```
//!
//! Illegal transitions panic immediately with the allocation site
//! (captured via `#[track_caller]`):
//!
//! * **use-after-release** — any operation on a released token,
//! * **double-complete** — completing a descriptor twice,
//! * **completed-before-submit** — completing work never submitted,
//! * **not-released-at-teardown** — [`SimSanitizer::assert_quiesced`]
//!   lists every token still allocated or submitted.
//!
//! Two completion flavors exist because two kinds of handle exist:
//!
//! * [`SimSanitizer::complete`] is *strict* (exactly once), for
//!   single-owner descriptors like I/OAT copies;
//! * [`SimSanitizer::park`] is *idempotent*, for shared handles like
//!   registration-cache regions that are legitimately re-submitted
//!   and re-parked many times before their final release. Parked
//!   (`Completed`) tokens are not flagged at teardown — a cached
//!   region staying pinned is deferred deregistration, not a leak.
//!
//! Everything is gated on `debug_assertions`: release builds carry a
//! zero-sized [`Token`] and every call compiles to nothing, so the
//! paper-claims numbers are unaffected. The registry is thread-local;
//! `cargo test` runs each test on its own thread, which gives each
//! test an isolated registry for free.

use serde::{Serialize, Value};
use std::fmt;

/// Which lifecycle family a token belongs to (diagnostics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An RX ring skbuff (NIC deposit → BH → protocol consume).
    Skbuff,
    /// A pinned (registered) memory region.
    Region,
    /// One submitted I/OAT copy descriptor batch.
    IoatDescriptor,
    /// One in-progress pull-engine handle.
    PullHandle,
    /// A promised bottom-half run: minted when a `BottomHalfQueue`
    /// asks its caller to schedule a run, completed when that run
    /// begins. A dropped re-schedule (lost wakeup) surfaces at
    /// teardown instead of hanging silently.
    BhRun,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Skbuff => "skbuff",
            Kind::Region => "pinned region",
            Kind::IoatDescriptor => "I/OAT descriptor",
            Kind::PullHandle => "pull handle",
            Kind::BhRun => "scheduled BH run",
        })
    }
}

/// Opaque lifecycle handle carried inside a sanitized resource.
///
/// Tokens are deliberately inert for everything except the sanitizer:
/// they compare equal to each other, hash to nothing and serialize as
/// a constant, so embedding one in a `PartialEq`/`Hash`/`Serialize`
/// type changes none of that type's observable behavior (and never
/// leaks a registry index into serialized output). In release builds
/// the token is zero-sized.
#[derive(Clone, Copy)]
pub struct Token {
    #[cfg(debug_assertions)]
    id: u64,
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Token")
    }
}

impl PartialEq for Token {
    fn eq(&self, _other: &Token) -> bool {
        true
    }
}

impl Eq for Token {}

impl std::hash::Hash for Token {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

impl Serialize for Token {
    fn to_value(&self) -> Value {
        Value::U64(0)
    }
}

#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Allocated,
    Submitted,
    Completed,
    Released,
}

#[cfg(debug_assertions)]
impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            State::Allocated => "allocated",
            State::Submitted => "submitted",
            State::Completed => "completed",
            State::Released => "released",
        })
    }
}

#[cfg(debug_assertions)]
struct Entry {
    kind: Kind,
    state: State,
    site: &'static std::panic::Location<'static>,
}

#[cfg(debug_assertions)]
thread_local! {
    static REGISTRY: std::cell::RefCell<Vec<Entry>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The lifecycle registry (see module docs). All methods are
/// associated functions over a thread-local registry; in release
/// builds every one of them is a no-op.
pub struct SimSanitizer;

impl SimSanitizer {
    /// Mint a token in the `Allocated` state, recording the caller as
    /// the allocation site reported by every later diagnostic.
    #[track_caller]
    #[inline]
    pub fn alloc(kind: Kind) -> Token {
        #[cfg(debug_assertions)]
        {
            let site = std::panic::Location::caller();
            let id = REGISTRY.with(|r| {
                let mut r = r.borrow_mut();
                r.push(Entry {
                    kind,
                    state: State::Allocated,
                    site,
                });
                (r.len() - 1) as u64
            });
            Token { id }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = kind;
            Token {}
        }
    }

    /// `Allocated | Submitted | Completed → Submitted`. Re-submission
    /// is legal (shared handles like cached regions are handed out
    /// again); any use of a released token panics.
    #[track_caller]
    #[inline]
    pub fn submit(token: Token) {
        #[cfg(debug_assertions)]
        Self::transition(token, "submit", |kind, state, site| match state {
            State::Released => Err(use_after_release(kind, "submit", site)),
            _ => Ok(State::Submitted),
        });
        #[cfg(not(debug_assertions))]
        let _ = token;
    }

    /// Strict completion: `Submitted → Completed`, exactly once.
    /// Panics on **double-complete**, on completion of work never
    /// submitted, and on any use of a released token.
    #[track_caller]
    #[inline]
    pub fn complete(token: Token) {
        #[cfg(debug_assertions)]
        Self::transition(token, "complete", |kind, state, site| match state {
            State::Submitted => Ok(State::Completed),
            State::Completed => Err(format!(
                "SimSanitizer: double-complete of {kind} allocated at {site}"
            )),
            State::Allocated => Err(format!(
                "SimSanitizer: {kind} allocated at {site} completed before it was submitted"
            )),
            State::Released => Err(use_after_release(kind, "complete", site)),
        });
        #[cfg(not(debug_assertions))]
        let _ = token;
    }

    /// Idempotent completion for shared handles:
    /// `Allocated | Submitted | Completed → Completed`. A parked token
    /// is not flagged at teardown (deferred deregistration); only use
    /// of a released token panics.
    #[track_caller]
    #[inline]
    pub fn park(token: Token) {
        #[cfg(debug_assertions)]
        Self::transition(token, "park", |kind, state, site| match state {
            State::Released => Err(use_after_release(kind, "park", site)),
            _ => Ok(State::Completed),
        });
        #[cfg(not(debug_assertions))]
        let _ = token;
    }

    /// Final transition: `Allocated | Submitted | Completed →
    /// Released`. Releasing twice panics (**use-after-release**).
    #[track_caller]
    #[inline]
    pub fn release(token: Token) {
        #[cfg(debug_assertions)]
        Self::transition(token, "release", |kind, state, site| match state {
            State::Released => Err(format!(
                "SimSanitizer: double-release (use-after-release) of {kind} allocated at {site}"
            )),
            _ => Ok(State::Released),
        });
        #[cfg(not(debug_assertions))]
        let _ = token;
    }

    /// Teardown check: panic if any token is still `Allocated` or
    /// `Submitted`, listing each leak with its kind and allocation
    /// site. `Completed` tokens are legitimately parked (e.g. the
    /// registration cache) and pass.
    pub fn assert_quiesced() {
        #[cfg(debug_assertions)]
        REGISTRY.with(|r| {
            let r = r.borrow();
            let leaks: Vec<String> = r
                .iter()
                .filter(|e| matches!(e.state, State::Allocated | State::Submitted))
                .map(|e| {
                    format!(
                        "  {} {} at teardown, allocated at {}",
                        e.kind, e.state, e.site
                    )
                })
                .collect();
            if !leaks.is_empty() {
                panic!(
                    "SimSanitizer: {} lifecycle handle(s) not released at teardown:\n{}",
                    leaks.len(),
                    leaks.join("\n")
                );
            }
        });
    }

    /// Tokens currently `Allocated` or `Submitted` (0 in release
    /// builds).
    pub fn outstanding() -> usize {
        #[cfg(debug_assertions)]
        {
            REGISTRY.with(|r| {
                r.borrow()
                    .iter()
                    .filter(|e| matches!(e.state, State::Allocated | State::Submitted))
                    .count()
            })
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    /// Forget every token on this thread (test isolation helper; the
    /// registry otherwise keeps released tombstones to detect
    /// use-after-release).
    pub fn clear() {
        #[cfg(debug_assertions)]
        REGISTRY.with(|r| r.borrow_mut().clear());
    }

    /// Pre-grow the registry for `tokens` more entries. The registry
    /// is append-only (released tombstones stay behind to catch
    /// use-after-release), so in debug builds minting a token can
    /// reallocate its backing storage; allocation-accounting tests
    /// call this before their measured span so that growth never
    /// lands inside it. No-op in release builds.
    pub fn reserve(tokens: usize) {
        #[cfg(debug_assertions)]
        REGISTRY.with(|r| r.borrow_mut().reserve(tokens));
        #[cfg(not(debug_assertions))]
        let _ = tokens;
    }

    #[cfg(debug_assertions)]
    #[track_caller]
    fn transition(
        token: Token,
        op: &str,
        f: impl FnOnce(Kind, State, &'static std::panic::Location<'static>) -> Result<State, String>,
    ) {
        REGISTRY.with(|r| {
            let mut r = r.borrow_mut();
            let entry = r
                .get_mut(token.id as usize)
                .unwrap_or_else(|| panic!("SimSanitizer: {op} on a token from another thread"));
            match f(entry.kind, entry.state, entry.site) {
                Ok(next) => entry.state = next,
                Err(msg) => panic!("{msg}"),
            }
        });
    }
}

#[cfg(debug_assertions)]
fn use_after_release(kind: Kind, op: &str, site: &'static std::panic::Location<'static>) -> String {
    format!("SimSanitizer: use-after-release ({op}) of {kind} allocated at {site}")
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn clean_lifecycle_quiesces() {
        SimSanitizer::clear();
        let t = SimSanitizer::alloc(Kind::IoatDescriptor);
        SimSanitizer::submit(t);
        SimSanitizer::complete(t);
        SimSanitizer::release(t);
        assert_eq!(SimSanitizer::outstanding(), 0);
        SimSanitizer::assert_quiesced();
    }

    #[test]
    fn parked_handles_pass_teardown() {
        SimSanitizer::clear();
        let t = SimSanitizer::alloc(Kind::Region);
        SimSanitizer::submit(t);
        SimSanitizer::park(t);
        // A cached region is re-registered and re-parked repeatedly.
        SimSanitizer::submit(t);
        SimSanitizer::park(t);
        SimSanitizer::park(t);
        SimSanitizer::assert_quiesced();
        SimSanitizer::release(t);
    }

    #[test]
    #[should_panic(expected = "double-complete")]
    fn double_complete_panics() {
        let t = SimSanitizer::alloc(Kind::IoatDescriptor);
        SimSanitizer::submit(t);
        SimSanitizer::complete(t);
        SimSanitizer::complete(t);
    }

    #[test]
    #[should_panic(expected = "use-after-release")]
    fn submit_after_release_panics() {
        let t = SimSanitizer::alloc(Kind::Skbuff);
        SimSanitizer::submit(t);
        SimSanitizer::release(t);
        SimSanitizer::submit(t);
    }

    #[test]
    #[should_panic(expected = "use-after-release")]
    fn double_release_panics() {
        let t = SimSanitizer::alloc(Kind::PullHandle);
        SimSanitizer::release(t);
        SimSanitizer::release(t);
    }

    #[test]
    #[should_panic(expected = "before it was submitted")]
    fn complete_before_submit_panics() {
        let t = SimSanitizer::alloc(Kind::IoatDescriptor);
        SimSanitizer::complete(t);
    }

    #[test]
    #[should_panic(expected = "not released at teardown")]
    fn leaked_submit_fails_teardown() {
        SimSanitizer::clear();
        let t = SimSanitizer::alloc(Kind::Skbuff);
        SimSanitizer::submit(t);
        SimSanitizer::assert_quiesced();
    }

    #[test]
    fn tokens_are_inert_for_equality_hash_and_serde() {
        let a = SimSanitizer::alloc(Kind::Skbuff);
        let b = SimSanitizer::alloc(Kind::Region);
        assert_eq!(a, b);
        assert_eq!(a.to_value(), Value::U64(0));
        assert_eq!(format!("{a:?}"), "Token");
    }
}
