//! Runtime metrics-sanitizer switch.
//!
//! Every finalized run is audited against the declared conservation
//! laws ([`hiss_obs::invariants`]) and publishes how many were checked
//! as `run.invariants_checked`. Whether a violation **aborts** the run
//! is controlled here:
//!
//! - debug builds (so the whole test suite) always fail hard,
//! - release builds fail hard when `HISS_SANITIZE=1` (or `true`, `yes`,
//!   `on`) is set, or when a front-end calls [`force_sanitize`]
//!   (`hiss-cli scenario run --sanitize`, `hiss-serve`).
//!
//! The audit itself always runs and the counter is always published, so
//! snapshots stay byte-identical whatever the enforcement mode.

use std::sync::OnceLock;

static ENABLED: OnceLock<bool> = OnceLock::new();

fn env_requests_sanitize() -> bool {
    matches!(
        std::env::var("HISS_SANITIZE").ok().as_deref(),
        Some("1") | Some("true") | Some("yes") | Some("on")
    )
}

/// Turns hard-failure enforcement on for the rest of the process, as if
/// `HISS_SANITIZE=1` had been set. Front-ends call this for
/// `--sanitize`; calling it after the switch was already read is a
/// no-op only if enforcement was already on.
pub fn force_sanitize() {
    ENABLED.get_or_init(|| true);
}

/// Whether a conservation-law violation must abort the run: always in
/// debug builds, opt-in via `HISS_SANITIZE` / [`force_sanitize`] in
/// release builds. The environment is read once per process.
pub fn sanitize_enabled() -> bool {
    cfg!(debug_assertions) || *ENABLED.get_or_init(env_requests_sanitize)
}

#[cfg(test)]
mod tests {
    #[test]
    fn debug_builds_always_enforce() {
        // Nothing in this test binary calls `force_sanitize`, so
        // enforcement is exactly "debug build, or HISS_SANITIZE set":
        // always on under `cargo test`, and opt-in under
        // `cargo test --release`.
        assert_eq!(
            super::sanitize_enabled(),
            cfg!(debug_assertions) || super::env_requests_sanitize()
        );
    }
}
