//! Environment-variable knobs, consolidated.
//!
//! Every `CEDAR_*` runtime knob is parsed here, under one documented
//! policy with two tiers:
//!
//! * **Lenient** knobs steer pure wall-clock behaviour: only the thread
//!   counts, `CEDAR_NUM_THREADS` and `CEDAR_SWEEP_THREADS`. The simulated
//!   results are bit-for-bit identical whatever these are set to, so a
//!   malformed value is never worth aborting a run over: the parser
//!   prints a stderr warning naming the variable, the rejected value and
//!   the fallback, and the configured thread count stands.
//! * **Strict** knobs change *observable output* — the fault seed and the
//!   tracing plan select which experiment runs. Garbage there is a hard
//!   [`MachineError::InvalidConfig`]: silently running a different
//!   experiment than the one asked for is exactly what the deterministic
//!   seeding exists to prevent.
//!
//! `crate::config` re-exports all of these, so existing call sites keep
//! their `config::` paths.

use crate::error::MachineError;

/// The simulation thread count requested through the `CEDAR_NUM_THREADS`
/// environment variable, if set to a positive integer.
///
/// A set-but-invalid value (garbage, zero, negative) is *not* silently
/// ignored: a warning naming the variable, the rejected value and the
/// fallback is printed to stderr, and the configured thread count stands.
pub fn threads_from_env() -> Option<usize> {
    parse_env_threads("CEDAR_NUM_THREADS")
}

/// Shared lenient parser for thread-count environment knobs
/// (`CEDAR_NUM_THREADS` here, `CEDAR_SWEEP_THREADS` in the experiment
/// sweep driver): unset → `None`; a positive integer → `Some(n)`; anything
/// else → `None` *with a stderr warning* so a typo in a CI matrix is
/// visible instead of silently running the fallback configuration.
pub fn parse_env_threads(var: &str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!(
                "warning: ignoring {var}={raw:?}: expected a positive integer; \
                 falling back to the configured thread count"
            );
            None
        }
    }
}

/// The fault-injection seed requested through the `CEDAR_FAULT_SEED`
/// environment variable: unset → `Ok(None)`, a u64 (decimal, or hex with a
/// `0x` prefix) → `Ok(Some(seed))`.
///
/// # Errors
///
/// Unlike the thread knobs, an invalid seed is a hard
/// [`MachineError::InvalidConfig`]: a resilience run with a silently
/// wrong seed would report results for an experiment nobody asked for.
pub fn fault_seed_from_env() -> Result<Option<u64>, MachineError> {
    let Ok(raw) = std::env::var("CEDAR_FAULT_SEED") else {
        return Ok(None);
    };
    let s = raw.trim();
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    parsed.map(Some).map_err(|_| {
        MachineError::InvalidConfig(format!(
            "CEDAR_FAULT_SEED={raw:?} is not a u64 (decimal or 0x-prefixed hex)"
        ))
    })
}

/// The causal-tracing plan requested through the environment:
/// `CEDAR_TRACE_SAMPLE_PPM` (journeys sampled per million candidates) and
/// `CEDAR_TRACE_SEED` (u64, decimal or `0x`-prefixed hex; defaults to 0
/// when only the rate is set). Unset or zero rate → `Ok(None)`: the seed
/// alone never turns tracing on.
///
/// # Errors
///
/// Like [`fault_seed_from_env`] and unlike the thread knobs, garbage in
/// either variable is a hard [`MachineError::InvalidConfig`] naming the
/// variable: tracing *changes observable output* (the `trace.*` stats
/// keys and every trace report), so silently running a different sampling
/// plan than the one asked for is exactly what the deterministic tracing
/// layer exists to prevent.
pub fn trace_plan_from_env() -> Result<Option<crate::trace::TracePlan>, MachineError> {
    // Both variables are validated whenever set, even when the other one
    // would make the result `None` — a typo must never pass silently.
    let seed = match std::env::var("CEDAR_TRACE_SEED") {
        Err(_) => 0,
        Ok(raw) => {
            let s = raw.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            parsed.map_err(|_| {
                MachineError::InvalidConfig(format!(
                    "CEDAR_TRACE_SEED={raw:?} is not a u64 (decimal or 0x-prefixed hex)"
                ))
            })?
        }
    };
    let ppm = match std::env::var("CEDAR_TRACE_SAMPLE_PPM") {
        Err(_) => return Ok(None),
        Ok(raw) => {
            let parsed = raw.trim().parse::<u32>().ok().filter(|&p| p <= 1_000_000);
            parsed.ok_or_else(|| {
                MachineError::InvalidConfig(format!(
                    "CEDAR_TRACE_SAMPLE_PPM={raw:?} is not a rate in 0..=1000000"
                ))
            })?
        }
    };
    if ppm == 0 {
        return Ok(None);
    }
    Ok(Some(crate::trace::TracePlan {
        seed,
        sample_ppm: ppm,
    }))
}

/// The auto-checkpoint interval requested through the
/// `CEDAR_CHECKPOINT_EVERY` environment variable: unset → `Ok(None)`, a
/// non-negative cycle count → `Ok(Some(n))` (`0` switches checkpointing
/// off, overriding a configured interval).
///
/// # Errors
///
/// Strict like [`fault_seed_from_env`]: garbage is a hard
/// [`MachineError::InvalidConfig`]. Checkpointing silently off when a CI
/// leg or an operator asked for it would void the crash-recovery
/// guarantee the knob exists to provide — the run would finish, report
/// correct results, and leave nothing to resume from after a crash.
pub fn checkpoint_every_from_env() -> Result<Option<u64>, MachineError> {
    let Ok(raw) = std::env::var("CEDAR_CHECKPOINT_EVERY") else {
        return Ok(None);
    };
    raw.trim().parse::<u64>().map(Some).map_err(|_| {
        MachineError::InvalidConfig(format!(
            "CEDAR_CHECKPOINT_EVERY={raw:?} is not a cycle count (non-negative integer)"
        ))
    })
}

/// The auto-checkpoint file requested through the
/// `CEDAR_CHECKPOINT_PATH` environment variable: unset → `Ok(None)`, a
/// non-empty path → `Ok(Some(path))`.
///
/// # Errors
///
/// Strict: an empty (or all-whitespace) value is a hard
/// [`MachineError::InvalidConfig`] — it almost certainly means a CI
/// variable expansion came up empty, and "checkpoint to nowhere" must
/// not pass silently.
pub fn checkpoint_path_from_env() -> Result<Option<std::path::PathBuf>, MachineError> {
    let Ok(raw) = std::env::var("CEDAR_CHECKPOINT_PATH") else {
        return Ok(None);
    };
    if raw.trim().is_empty() {
        return Err(MachineError::InvalidConfig(
            "CEDAR_CHECKPOINT_PATH is set but empty".to_string(),
        ));
    }
    Ok(Some(std::path::PathBuf::from(raw)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    // One test owns each variable end to end: unit tests share a process,
    // so splitting a variable's cases across tests would race on the
    // environment.
    #[test]
    fn env_thread_knob_parses_and_feeds_with_env_threads() {
        std::env::remove_var("CEDAR_NUM_THREADS");
        assert_eq!(threads_from_env(), None);
        assert_eq!(MachineConfig::cedar().with_env_threads().num_threads, 1);

        std::env::set_var("CEDAR_NUM_THREADS", " 4 ");
        assert_eq!(threads_from_env(), Some(4));
        assert_eq!(MachineConfig::cedar().with_env_threads().num_threads, 4);

        // Garbage and zero are ignored (with a stderr warning), not errors.
        for bad in ["zero", "", "0", "-2"] {
            std::env::set_var("CEDAR_NUM_THREADS", bad);
            assert_eq!(threads_from_env(), None, "{bad:?} should not parse");
        }
        std::env::remove_var("CEDAR_NUM_THREADS");
    }

    // Same single-owner rule for CEDAR_FAULT_SEED.
    #[test]
    fn env_fault_seed_parses_strictly() {
        std::env::remove_var("CEDAR_FAULT_SEED");
        assert_eq!(fault_seed_from_env().unwrap(), None);

        std::env::set_var("CEDAR_FAULT_SEED", " 42 ");
        assert_eq!(fault_seed_from_env().unwrap(), Some(42));
        std::env::set_var("CEDAR_FAULT_SEED", "0xCEDA");
        assert_eq!(fault_seed_from_env().unwrap(), Some(0xCEDA));

        // Garbage is a hard error, not a silent fallback.
        std::env::set_var("CEDAR_FAULT_SEED", "not-a-seed");
        let err = fault_seed_from_env().unwrap_err();
        assert!(matches!(err, MachineError::InvalidConfig(_)));
        assert!(err.to_string().contains("CEDAR_FAULT_SEED"));
        std::env::remove_var("CEDAR_FAULT_SEED");
    }
}
