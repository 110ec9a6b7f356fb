//! The chaos-injection flags shared by `simulate`, `serve`,
//! `replay-online`, and `scenario`: parsed once into [`ChaosFlags`]
//! so every subcommand agrees on defaults and validation. The flags
//! themselves are declared in [`crate::args::COMMANDS`].
//!
//! The durability plane has its own fault family, parsed by
//! [`storage_fault_flags`] into an [`eavm_storage::StorageFaultConfig`]
//! armed on the journal's storage backend.

use eavm_faults::{FaultConfig, FaultPlan, LookupFaults, WorkerFaultPlan};
use eavm_storage::StorageFaultConfig;

use crate::args::Args;

/// Default chaos seed, shared with [`eavm_scenario::FaultSpec`].
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// Default served-message count before an armed worker kill fires.
pub const DEFAULT_KILL_AFTER: u64 = 16;

/// The four chaos flags, each remembering whether it was given
/// explicitly (so `scenario run` can overlay only what the user set).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosFlags {
    seed: Option<u64>,
    rate: Option<f64>,
    kill_shard: Option<usize>,
    kill_after: Option<u64>,
}

impl ChaosFlags {
    /// Parse and validate the chaos flags from a command line. Each
    /// pair is read only where the subcommand declares it: `recover`
    /// declares neither, and only the service has workers to kill.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let mut flags = ChaosFlags::default();
        if args.declares("fault-rate") {
            flags.rate = args.get_optional("fault-rate")?;
            // `fraction_or` owns the range check (and its error message).
            args.fraction_or("fault-rate", 0.0)?;
            flags.seed = args.get_optional("fault-seed")?;
        }
        if args.declares("kill-shard") {
            flags.kill_shard = args.get_optional("kill-shard")?;
            flags.kill_after = args.get_optional("kill-after")?;
            if flags.kill_after == Some(0) {
                return Err("--kill-after must be nonzero".into());
            }
        }
        Ok(flags)
    }

    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_FAULT_SEED)
    }

    pub fn rate(&self) -> f64 {
        self.rate.unwrap_or(0.0)
    }

    pub fn kill_after(&self) -> u64 {
        self.kill_after.unwrap_or(DEFAULT_KILL_AFTER)
    }

    /// Arm a deterministic host-level [`FaultPlan`] over `hosts` hosts
    /// and a horizon of the last submission plus ten hours. Returns
    /// `None` when no rate (or a zero rate) was given.
    pub fn host_plan(
        &self,
        hosts: usize,
        requests: &[eavm_swf::VmRequest],
    ) -> Option<(u64, f64, FaultPlan)> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let seed = self.seed();
        let horizon = requests
            .iter()
            .map(|r| r.submit.value())
            .fold(0.0f64, f64::max)
            + 36_000.0;
        let plan = FaultPlan::generate(&FaultConfig::uniform(seed, rate), hosts, horizon);
        Some((seed, rate, plan))
    }

    /// Arm transient model-lookup failures for the online service: the
    /// predicate the simulator's plan carries for the same seed and
    /// rate. `None` when the rate is zero.
    pub fn lookup_faults(&self) -> Option<LookupFaults> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let lookup = FaultConfig::uniform(self.seed(), rate).lookup_failure_rate;
        Some(LookupFaults::seeded(self.seed(), lookup))
    }

    /// Arm the worker-kill plan when `--kill-shard` was given, range-
    /// checking the shard index against the fleet.
    pub fn worker_faults(&self, shards: usize) -> Result<Option<WorkerFaultPlan>, String> {
        let Some(kill_shard) = self.kill_shard else {
            return Ok(None);
        };
        if kill_shard >= shards {
            return Err(format!(
                "--kill-shard {kill_shard} out of range (shards={shards})"
            ));
        }
        Ok(Some(WorkerFaultPlan::kill_shard(
            shards,
            kill_shard,
            self.kill_after(),
        )))
    }

    /// Overlay explicitly-given flags onto a scenario's fault spec
    /// (command line wins over the file), then re-validate the spec so
    /// overrides cannot smuggle in a mode/feature mismatch. As on
    /// `serve` and `simulate`, `--fault-rate F` arms lookup failures at
    /// [`FaultConfig::uniform`]'s derived rate; only the file's own
    /// `lookup_failure_rate` key is a raw probability.
    pub fn apply_to_spec(&self, spec: &mut eavm_scenario::ScenarioSpec) -> Result<(), String> {
        if let Some(seed) = self.seed {
            spec.faults.seed = seed;
        }
        if let Some(rate) = self.rate {
            spec.faults.lookup_failure_rate =
                FaultConfig::uniform(spec.faults.seed, rate).lookup_failure_rate;
        }
        if let Some(shard) = self.kill_shard {
            spec.faults.kill_shard = Some(shard);
        }
        if let Some(after) = self.kill_after {
            spec.faults.kill_after = after;
        }
        spec.validate()
    }
}

/// Parse the storage-fault flags shared by `serve` and `recover` into
/// a [`StorageFaultConfig`], or `None` when no fault is armed: torn
/// appends, read-back bit flips, dropped fsyncs and failed renames at
/// the given probabilities, and ENOSPC past a byte budget. The seed
/// (default `0xFA17`) is rejected on its own, since a seed with nothing
/// armed is a typo.
pub fn storage_fault_flags(args: &Args) -> Result<Option<StorageFaultConfig>, String> {
    let torn = args.fraction_or("storage-torn-append", 0.0)?;
    let flip = args.fraction_or("storage-bit-flip", 0.0)?;
    let drop = args.fraction_or("storage-drop-sync", 0.0)?;
    let rename = args.fraction_or("storage-fail-rename", 0.0)?;
    let enospc = args.get_optional::<u64>("storage-enospc-after")?;
    if enospc == Some(0) {
        return Err("--storage-enospc-after must be nonzero".into());
    }
    let armed = torn > 0.0 || flip > 0.0 || drop > 0.0 || rename > 0.0 || enospc.is_some();
    if !armed {
        if args.get_optional::<u64>("storage-fault-seed")?.is_some() {
            return Err(
                "--storage-fault-seed needs a storage fault rate or --storage-enospc-after".into(),
            );
        }
        return Ok(None);
    }
    let seed = args.get_or("storage-fault-seed", DEFAULT_FAULT_SEED)?;
    let mut faults = StorageFaultConfig::quiet(seed)
        .with_torn_append(torn)
        .with_bit_flip(flip)
        .with_drop_sync(drop)
        .with_fail_rename(rename);
    if let Some(bytes) = enospc {
        faults = faults.with_enospc_after(bytes);
    }
    Ok(Some(faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::command;
    use eavm_types::Seconds;

    fn args(name: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(command(name).expect("declared subcommand"), &argv)
    }

    /// `serve` with its required flags and a journal, plus `extra`.
    fn serve(extra: &[&str]) -> Args {
        let mut argv = vec!["--db-dir", "db", "--trace", "t.swf", "--servers", "4"];
        argv.extend(["--journal-dir", "j"]);
        argv.extend(extra);
        args("serve", &argv).expect("argv parses")
    }

    fn parse(argv: &[&str]) -> ChaosFlags {
        ChaosFlags::from_args(&args("scenario check", argv).expect("argv parses"))
            .expect("flags parse")
    }

    #[test]
    fn defaults_arm_nothing() {
        let flags = parse(&[]);
        assert_eq!(flags.seed(), DEFAULT_FAULT_SEED);
        assert!(flags.host_plan(8, &[]).is_none());
        assert!(flags.lookup_faults().is_none());
        assert!(flags.worker_faults(4).expect("in range").is_none());
    }

    #[test]
    fn rate_and_kill_flags_validate() {
        let err = ChaosFlags::from_args(&args("scenario check", &["--fault-rate", "1.5"]).unwrap())
            .expect_err("rate out of range");
        assert!(err.contains("[0, 1]"), "{err}");

        let err = ChaosFlags::from_args(&args("scenario check", &["--kill-after", "0"]).unwrap())
            .expect_err("zero kill-after");
        assert!(err.contains("nonzero"), "{err}");

        let flags = parse(&["--kill-shard", "9"]);
        let err = flags.worker_faults(4).expect_err("shard out of range");
        assert!(err.contains("out of range"), "{err}");
    }

    fn scenario_spec() -> eavm_scenario::ScenarioSpec {
        eavm_scenario::parse_scenario(
            "[scenario]\nname = \"t\"\nmode = \"simulate\"\n\
             [fleet]\nservers = 4\n\
             [phase.base]\nexit_jobs = 10\n",
        )
        .expect("valid scenario")
    }

    /// One `--fault-seed S --fault-rate F` pair arms the same lookup
    /// failures on `serve`, in the simulator's plan, and in a scenario
    /// compiled under `scenario check`'s overrides.
    #[test]
    fn serve_lookup_faults_match_the_simulator_plan() {
        let solo = [Seconds(1200.0), Seconds(1000.0), Seconds(900.0)];
        for (seed, rate) in [("42", "1.0"), ("7", "0.3"), ("64023", "0.05")] {
            let argv = ["--fault-seed", seed, "--fault-rate", rate];
            let flags = ChaosFlags::from_args(&serve(&argv)).expect("flags parse");
            let (_, _, plan) = flags.host_plan(8, &[]).expect("rate arms a plan");
            assert_eq!(
                flags.lookup_faults(),
                Some(plan.lookup_faults()),
                "seed {seed}"
            );

            let mut spec = scenario_spec();
            parse(&argv)
                .apply_to_spec(&mut spec)
                .expect("overrides apply");
            let compiled = eavm_scenario::compile(&spec, solo).expect("scenario compiles");
            assert_eq!(
                flags.lookup_faults(),
                Some(compiled.fault_plan.lookup_faults()),
                "scenario, seed {seed}"
            );
        }
    }

    #[test]
    fn overrides_only_touch_given_flags() {
        let mut spec = scenario_spec();
        let before = spec.faults.seed;
        parse(&[]).apply_to_spec(&mut spec).expect("no-op apply");
        assert_eq!(spec.faults.seed, before);

        parse(&["--fault-seed", "7", "--fault-rate", "0.25"])
            .apply_to_spec(&mut spec)
            .expect("overrides apply");
        assert_eq!(spec.faults.seed, 7);
        assert!((spec.faults.lookup_failure_rate - 0.0025).abs() < 1e-12);

        // A kill override on a simulate-mode scenario must fail the
        // re-validation instead of silently compiling to nothing.
        let err = parse(&["--kill-shard", "0"])
            .apply_to_spec(&mut spec)
            .expect_err("kill needs service mode");
        assert!(err.contains("kill"), "{err}");
    }

    fn storage(argv: &[&str]) -> Result<Option<StorageFaultConfig>, String> {
        storage_fault_flags(&serve(argv))
    }

    #[test]
    fn storage_flags_arm_only_when_a_fault_is_given() {
        assert!(storage(&[]).expect("parses").is_none());
        let armed = storage(&["--storage-bit-flip", "0.5"])
            .expect("parses")
            .expect("armed");
        assert!(!armed.is_quiet());

        let err = storage(&["--storage-fault-seed", "9"]).expect_err("seed alone");
        assert!(err.contains("storage-fault-seed"), "{err}");
        let err = storage(&["--storage-enospc-after", "0"]).expect_err("zero budget");
        assert!(err.contains("nonzero"), "{err}");
        let err = storage(&["--storage-torn-append", "1.5"]).expect_err("out of range");
        assert!(err.contains("[0, 1]"), "{err}");
    }
}
