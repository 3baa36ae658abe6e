//! Fault injection for robustness tests.
//!
//! Library code marks interesting failure sites with
//! [`faultpoint!`](crate::faultpoint) — a named no-op costing one relaxed
//! atomic load while nothing is armed. Tests arm a site with [`arm`] /
//! [`arm_nth`] to make it panic, then assert the error surfaces as a
//! typed error (never a panic) across the public API under test. The
//! returned [`FaultGuard`] disarms on drop, so a failing assertion
//! cannot leak an armed fault into later tests.
//!
//! ```
//! use bdsm_obs::fault;
//!
//! fn fallible() -> Result<u32, String> {
//!     std::panic::catch_unwind(|| {
//!         bdsm_obs::faultpoint!("demo.step");
//!         42
//!     })
//!     .map_err(|_| "worker panicked".to_string())
//! }
//!
//! assert_eq!(fallible(), Ok(42));
//! let guard = fault::arm("demo.step");
//! assert!(fallible().is_err());
//! assert_eq!(guard.hits(), 1);
//! drop(guard);
//! assert_eq!(fallible(), Ok(42));
//! ```
//!
//! Faults are process-global: tests arming them must serialize (a shared
//! `Mutex` in the test module is the usual shape).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One armed fault site.
struct FaultSpec {
    /// Panic on the hit that brings the count to this value (1-based).
    fire_at: u64,
    /// Hits observed while armed (shared with the guard).
    hits: Arc<Mutex<u64>>,
}

/// `true` whenever at least one fault is armed — the only thing the
/// disarmed fast path reads.
static ARMED_ANY: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<&'static str, FaultSpec>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, FaultSpec>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Recover the registry lock even when a previous holder panicked — the
/// whole point of the module is inducing panics nearby.
fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<&'static str, FaultSpec>> {
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// Disarms its fault site on drop and exposes the observed hit count.
#[must_use = "the fault stays armed only while the guard lives"]
pub struct FaultGuard {
    name: &'static str,
    hits: Arc<Mutex<u64>>,
}

impl FaultGuard {
    /// How many times the armed site has been hit so far (fired or not).
    pub fn hits(&self) -> u64 {
        *self.hits.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut reg = lock_registry();
        reg.remove(self.name);
        if reg.is_empty() {
            ARMED_ANY.store(false, Ordering::Relaxed);
        }
    }
}

/// Arm `name`: the next [`faultpoint!`](crate::faultpoint) hit panics.
pub fn arm(name: &'static str) -> FaultGuard {
    arm_nth(name, 1)
}

/// Arm `name` to panic on its `n`-th hit (1-based; earlier hits pass
/// through). Re-arming a name replaces the previous spec.
///
/// # Panics
///
/// Panics if `n == 0` — "fire on the zeroth hit" is always a test bug.
pub fn arm_nth(name: &'static str, n: u64) -> FaultGuard {
    assert!(n > 0, "fault {name}: fire count must be 1-based");
    let hits = Arc::new(Mutex::new(0));
    let mut reg = lock_registry();
    reg.insert(
        name,
        FaultSpec {
            fire_at: n,
            hits: Arc::clone(&hits),
        },
    );
    ARMED_ANY.store(true, Ordering::Relaxed);
    drop(reg);
    FaultGuard { name, hits }
}

/// Runtime entry of [`faultpoint!`](crate::faultpoint): panics when the
/// named site is armed and due. One relaxed load when nothing is armed.
#[inline]
pub fn hit(name: &'static str) {
    if !ARMED_ANY.load(Ordering::Relaxed) {
        return;
    }
    hit_slow(name);
}

#[cold]
fn hit_slow(name: &'static str) {
    let fire = {
        let reg = lock_registry();
        match reg.get(name) {
            Some(spec) => {
                let mut h = spec.hits.lock().unwrap_or_else(|p| p.into_inner());
                *h += 1;
                *h == spec.fire_at
            }
            None => false,
        }
        // The guard drops here: the panic below must not poison the
        // registry lock, or disarming would deadlock on recovery.
    };
    if fire {
        panic!("injected fault: {name}");
    }
}

/// The message of a caught panic payload: the `&str` or `String` that
/// `panic!` carries, or a fixed note for any other payload type. What a
/// panic-containing API puts into its typed `Internal` error.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Mark a fault-injection site. Free when nothing is armed (one relaxed
/// atomic load); panics when a test armed this name via
/// [`fault::arm`](crate::fault::arm).
#[macro_export]
macro_rules! faultpoint {
    ($name:expr) => {
        $crate::fault::hit($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Faults are process-global; serialize the tests that arm them.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_faultpoint_is_a_noop() {
        let _g = locked();
        crate::faultpoint!("fault.test.noop"); // must not panic
    }

    #[test]
    fn armed_faultpoint_fires_once_and_guard_disarms() {
        let _g = locked();
        let guard = arm("fault.test.once");
        let r = std::panic::catch_unwind(|| crate::faultpoint!("fault.test.once"));
        assert!(r.is_err(), "armed faultpoint must panic");
        assert_eq!(guard.hits(), 1);
        // Fired already: later hits pass through while still armed.
        crate::faultpoint!("fault.test.once");
        assert_eq!(guard.hits(), 2);
        drop(guard);
        crate::faultpoint!("fault.test.once"); // disarmed: no-op again
    }

    #[test]
    fn arm_nth_skips_early_hits() {
        let _g = locked();
        let guard = arm_nth("fault.test.nth", 3);
        crate::faultpoint!("fault.test.nth");
        crate::faultpoint!("fault.test.nth");
        assert_eq!(guard.hits(), 2);
        let r = std::panic::catch_unwind(|| crate::faultpoint!("fault.test.nth"));
        assert!(r.is_err(), "third hit must fire");
        assert_eq!(guard.hits(), 3);
    }

    #[test]
    fn unrelated_names_do_not_fire() {
        let _g = locked();
        let _guard = arm("fault.test.a");
        crate::faultpoint!("fault.test.b"); // different name: no-op
    }

    #[test]
    fn registry_survives_the_panic_it_causes() {
        let _g = locked();
        {
            let _guard = arm("fault.test.poison");
            let _ = std::panic::catch_unwind(|| crate::faultpoint!("fault.test.poison"));
        }
        // Arm/disarm again: the registry lock must not be poisoned.
        let guard = arm("fault.test.poison");
        drop(guard);
        crate::faultpoint!("fault.test.poison");
    }

    #[test]
    fn panic_message_reads_every_payload_shape() {
        let literal = std::panic::catch_unwind(|| panic!("static text")).unwrap_err();
        assert_eq!(panic_message(&*literal), "static text");
        let n = 7;
        let formatted = std::panic::catch_unwind(|| panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_message(&*formatted), "formatted 7");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).unwrap_err();
        assert_eq!(panic_message(&*other), "panic with non-string payload");
    }
}
