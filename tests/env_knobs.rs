//! Environment-knob parsing contracts.
//!
//! Kept in its own test binary (one test, own process) because
//! environment variables are process-global: the test owns
//! `CEDAR_SWEEP_THREADS` and `CEDAR_FAULT_SEED` end to end and cannot
//! race other tests. It pins the error-handling split:
//!
//! * thread counts (`CEDAR_SWEEP_THREADS`, and `CEDAR_NUM_THREADS`
//!   through the same parser) are *tuning* knobs — a garbage value logs
//!   a warning and falls back to the configured default, because a bad
//!   thread count should never abort a simulation whose results don't
//!   depend on it;
//! * `CEDAR_FAULT_SEED` *changes results* — a garbage value is a hard
//!   `InvalidConfig` error, because silently running a different fault
//!   plan than the one asked for is exactly what the deterministic
//!   fault layer exists to prevent;
//! * `CEDAR_TRACE_SEED` / `CEDAR_TRACE_SAMPLE_PPM` follow the strict
//!   convention too — tracing changes observable output (the `trace.*`
//!   stats keys and every trace report), so both variables are validated
//!   whenever set, even when the sampling rate would end up zero.

use cedar::experiments::sweep::sweep_threads;
use cedar_machine::config::{
    checkpoint_every_from_env, checkpoint_path_from_env, fault_seed_from_env, trace_plan_from_env,
};
use cedar_machine::{MachineConfig, MachineError};

#[test]
fn env_knobs_fall_back_or_fail_loudly() {
    // SAFETY: this binary runs exactly one test, so no other thread
    // touches the environment concurrently.

    // --- CEDAR_SWEEP_THREADS: lenient, warn-and-fall-back ---
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var("CEDAR_SWEEP_THREADS", "3");
    assert_eq!(sweep_threads(), 3);
    for garbage in ["zero", "0", "-2", "1.5", ""] {
        std::env::set_var("CEDAR_SWEEP_THREADS", garbage);
        assert_eq!(
            sweep_threads(),
            host,
            "CEDAR_SWEEP_THREADS={garbage:?} must fall back to host parallelism"
        );
    }
    std::env::remove_var("CEDAR_SWEEP_THREADS");
    assert_eq!(sweep_threads(), host);

    // --- CEDAR_FAULT_SEED: strict, error on garbage ---
    std::env::remove_var("CEDAR_FAULT_SEED");
    assert_eq!(fault_seed_from_env().unwrap(), None);
    std::env::set_var("CEDAR_FAULT_SEED", "42");
    assert_eq!(fault_seed_from_env().unwrap(), Some(42));
    std::env::set_var("CEDAR_FAULT_SEED", "0xCEDA");
    assert_eq!(fault_seed_from_env().unwrap(), Some(0xCEDA));
    for garbage in ["not-a-seed", "-1", "0x", "1e9"] {
        std::env::set_var("CEDAR_FAULT_SEED", garbage);
        let err = fault_seed_from_env().unwrap_err();
        assert!(
            matches!(err, MachineError::InvalidConfig { .. }),
            "CEDAR_FAULT_SEED={garbage:?} must be InvalidConfig, got {err:?}"
        );
        assert!(
            err.to_string().contains("CEDAR_FAULT_SEED"),
            "the error should name the variable: {err}"
        );
    }
    std::env::remove_var("CEDAR_FAULT_SEED");

    // --- CEDAR_TRACE_SEED / CEDAR_TRACE_SAMPLE_PPM: strict pair ---
    std::env::remove_var("CEDAR_TRACE_SEED");
    std::env::remove_var("CEDAR_TRACE_SAMPLE_PPM");
    assert_eq!(trace_plan_from_env().unwrap(), None);

    // The seed alone never turns tracing on...
    std::env::set_var("CEDAR_TRACE_SEED", "0xCEDA");
    assert_eq!(trace_plan_from_env().unwrap(), None);
    // ...and neither does an explicit zero rate.
    std::env::set_var("CEDAR_TRACE_SAMPLE_PPM", "0");
    assert_eq!(trace_plan_from_env().unwrap(), None);

    std::env::set_var("CEDAR_TRACE_SAMPLE_PPM", "10000");
    let plan = trace_plan_from_env().unwrap().expect("tracing on");
    assert_eq!((plan.seed, plan.sample_ppm), (0xCEDA, 10_000));
    std::env::remove_var("CEDAR_TRACE_SEED");
    let plan = trace_plan_from_env().unwrap().expect("tracing on");
    assert_eq!(
        (plan.seed, plan.sample_ppm),
        (0, 10_000),
        "seed defaults to 0"
    );

    // Garbage in either variable is a hard error naming the variable —
    // even when the other variable would make the result None.
    for (var, garbage) in [
        ("CEDAR_TRACE_SAMPLE_PPM", "lots"),
        ("CEDAR_TRACE_SAMPLE_PPM", "-1"),
        ("CEDAR_TRACE_SAMPLE_PPM", "1000001"),
        ("CEDAR_TRACE_SAMPLE_PPM", "1e4"),
        ("CEDAR_TRACE_SEED", "not-a-seed"),
        ("CEDAR_TRACE_SEED", "0x"),
    ] {
        std::env::remove_var("CEDAR_TRACE_SEED");
        std::env::set_var("CEDAR_TRACE_SAMPLE_PPM", "0"); // would be None if valid
        std::env::set_var(var, garbage);
        let err = trace_plan_from_env().unwrap_err();
        assert!(
            matches!(err, MachineError::InvalidConfig { .. }),
            "{var}={garbage:?} must be InvalidConfig, got {err:?}"
        );
        assert!(
            err.to_string().contains(var),
            "the error should name the variable: {err}"
        );
    }
    std::env::remove_var("CEDAR_TRACE_SEED");
    std::env::remove_var("CEDAR_TRACE_SAMPLE_PPM");

    // --- CEDAR_CHECKPOINT_EVERY: strict, error on garbage ---
    // Checkpointing silently off when CI or an operator asked for it
    // would void the crash-recovery guarantee: the run would finish,
    // report correct results, and leave nothing to resume from.
    std::env::remove_var("CEDAR_CHECKPOINT_EVERY");
    assert_eq!(checkpoint_every_from_env().unwrap(), None);
    std::env::set_var("CEDAR_CHECKPOINT_EVERY", "50000");
    assert_eq!(checkpoint_every_from_env().unwrap(), Some(50_000));
    std::env::set_var("CEDAR_CHECKPOINT_EVERY", " 128 ");
    assert_eq!(
        checkpoint_every_from_env().unwrap(),
        Some(128),
        "whitespace is trimmed"
    );
    std::env::set_var("CEDAR_CHECKPOINT_EVERY", "0");
    assert_eq!(
        checkpoint_every_from_env().unwrap(),
        Some(0),
        "0 is legal: it switches a configured interval off"
    );
    for garbage in ["often", "-1", "1.5", "1e6", ""] {
        std::env::set_var("CEDAR_CHECKPOINT_EVERY", garbage);
        let err = checkpoint_every_from_env().unwrap_err();
        assert!(
            matches!(err, MachineError::InvalidConfig { .. }),
            "CEDAR_CHECKPOINT_EVERY={garbage:?} must be InvalidConfig, got {err:?}"
        );
        assert!(
            err.to_string().contains("CEDAR_CHECKPOINT_EVERY"),
            "the error should name the variable: {err}"
        );
    }
    std::env::remove_var("CEDAR_CHECKPOINT_EVERY");

    // --- CEDAR_CHECKPOINT_PATH: strict, error on empty ---
    // An empty value almost certainly means a CI variable expansion came
    // up empty; "checkpoint to nowhere" must not pass silently.
    std::env::remove_var("CEDAR_CHECKPOINT_PATH");
    assert_eq!(checkpoint_path_from_env().unwrap(), None);
    std::env::set_var("CEDAR_CHECKPOINT_PATH", "/tmp/cedar.snap");
    assert_eq!(
        checkpoint_path_from_env().unwrap(),
        Some(std::path::PathBuf::from("/tmp/cedar.snap"))
    );
    for empty in ["", "   "] {
        std::env::set_var("CEDAR_CHECKPOINT_PATH", empty);
        let err = checkpoint_path_from_env().unwrap_err();
        assert!(
            matches!(err, MachineError::InvalidConfig { .. }),
            "CEDAR_CHECKPOINT_PATH={empty:?} must be InvalidConfig, got {err:?}"
        );
        assert!(
            err.to_string().contains("CEDAR_CHECKPOINT_PATH"),
            "the error should name the variable: {err}"
        );
    }
    std::env::remove_var("CEDAR_CHECKPOINT_PATH");

    // --- the pair through the config builder ---
    std::env::set_var("CEDAR_CHECKPOINT_EVERY", "4096");
    std::env::set_var("CEDAR_CHECKPOINT_PATH", "/tmp/cedar.snap");
    let cfg = MachineConfig::cedar().with_env_checkpoint().unwrap();
    assert_eq!(cfg.checkpoint_every, 4096);
    assert_eq!(
        cfg.checkpoint_path,
        Some(std::path::PathBuf::from("/tmp/cedar.snap"))
    );
    // An interval without a destination cannot validate: the misconfig
    // surfaces at machine construction, not as a skipped checkpoint.
    std::env::remove_var("CEDAR_CHECKPOINT_PATH");
    let cfg = MachineConfig::cedar().with_env_checkpoint().unwrap();
    assert_eq!(cfg.checkpoint_every, 4096);
    assert!(
        cfg.validate().unwrap_err().contains("checkpoint"),
        "interval-without-path must fail validation"
    );
    std::env::remove_var("CEDAR_CHECKPOINT_EVERY");
}
