//! Strict `--flag value` argument parsing (no external dependencies).
//! [`COMMANDS`] declares every subcommand's flags once; the same rows
//! drive parsing and rejection, the typed getters (which
//! `debug_assert!` that the flag they read is declared) and `help`.

pub use table::COMMANDS;

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value placeholder shown in usage; `None` marks a switch.
    value: Option<&'static str>,
    /// Whether the subcommand refuses to run without it.
    required: bool,
    /// The flag this one is meaningless without, if any.
    needs: Option<&'static str>,
}

/// One subcommand: its name, its positional arguments as usage shows
/// them, and its flags as a list of groups.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    positionals: &'static str,
    groups: &'static [&'static [Flag]],
}

/// The tables, laid out by hand so that each group reads as one block.
#[rustfmt::skip]
mod table {
    use super::{Command, Flag};

    const fn opt(name: &'static str, value: &'static str) -> Flag {
        Flag { name, value: Some(value), required: false, needs: None }
    }
    const fn req(name: &'static str, value: &'static str) -> Flag {
        Flag { required: true, ..opt(name, value) }
    }
    const fn switch(name: &'static str) -> Flag {
        Flag { value: None, ..opt(name, "") }
    }
    impl Flag {
        const fn needs(self, other: &'static str) -> Flag {
            Flag { needs: Some(other), ..self }
        }
    }
    const fn cmd(name: &'static str, groups: &'static [&'static [Flag]]) -> Command {
        Command { name, positionals: "", groups }
    }

    /// The model database, the trace and its adaptation, and the fleet.
    const WORKLOAD: &[Flag] = &[
        req("db-dir", "DIR"), req("trace", "FILE"), req("servers", "N"),
        opt("vms", "N"), opt("seed", "N"), opt("qos", "F"),
    ];
    /// The PROACTIVE allocator of the service modes.
    const ALLOCATOR: &[Flag] = &[opt("margin", "F"), opt("alpha", "F")];
    /// The live service's shape and its verdict log.
    const SERVICE: &[Flag] = &[opt("shards", "N"), opt("queue", "N"), opt("verdicts-out", "FILE")];
    const CONSOLIDATION: &[Flag] = &[
        opt("consolidate-every", "SECS"), opt("drain-threshold", "N").needs("consolidate-every"),
    ];
    /// `--overload` arms the adaptive plane; the rest tune it.
    const OVERLOAD: &[Flag] = &[
        switch("overload"),
        opt("overload-cut", "F").needs("overload"),
        opt("limit-max", "N").needs("overload"),
        opt("queue-target", "SECS").needs("overload"),
        opt("queue-interval", "SECS").needs("overload"),
        opt("breaker-rate", "F").needs("overload"),
        opt("breaker-seed", "N").needs("overload"),
    ];
    /// Seeded host faults (simulator) or model-lookup faults (service).
    const FAULTS: &[Flag] = &[opt("fault-seed", "N"), opt("fault-rate", "F")];
    /// Kill one shard worker after M served messages.
    const KILL: &[Flag] = &[opt("kill-shard", "N"), opt("kill-after", "M").needs("kill-shard")];
    /// A scenario file may declare the kill itself: a bare `--kill-after`
    /// then overrides when it fires.
    const SCENARIO_KILL: &[Flag] = &[opt("kill-shard", "N"), opt("kill-after", "M")];
    const JOURNAL: &[Flag] = &[
        opt("checkpoint-every", "N").needs("journal-dir"),
        opt("append-retries", "N").needs("journal-dir"),
        opt("crash-after-events", "N").needs("journal-dir"),
        switch("scrub").needs("journal-dir"),
    ];
    /// Faults armed on the journal's storage backend.
    const STORAGE_FAULTS: &[Flag] = &[
        opt("storage-fault-seed", "N").needs("journal-dir"),
        opt("storage-torn-append", "F").needs("journal-dir"),
        opt("storage-bit-flip", "F").needs("journal-dir"),
        opt("storage-drop-sync", "F").needs("journal-dir"),
        opt("storage-fail-rename", "F").needs("journal-dir"),
        opt("storage-enospc-after", "BYTES").needs("journal-dir"),
    ];
    const METRICS: &[Flag] = &[
        opt("metrics-out", "FILE"), opt("metrics-format", "prometheus|json").needs("metrics-out"),
    ];
    const SIMULATE: &[Flag] = &[
        req("strategy", "NAME"), opt("margin", "F"), opt("big-nodes", "N"),
        switch("burst"), switch("always-on"), opt("timeline-out", "FILE"),
    ];

    /// Every subcommand, in the order `help` lists them.
    pub const COMMANDS: &[Command] = &[
        cmd("build-db", &[&[
            req("out-dir", "DIR"), opt("seed", "N"), switch("exact"), opt("threads", "N"),
        ]]),
        cmd("gen-trace", &[&[
            req("out", "FILE"), opt("seed", "N"), opt("jobs", "N"), opt("burst-gap", "SECS"),
        ]]),
        cmd("clean-trace", &[&[req("input", "FILE"), req("out", "FILE")]]),
        cmd("trace-stats", &[&[req("input", "FILE")]]),
        cmd("simulate", &[WORKLOAD, SIMULATE, CONSOLIDATION, FAULTS]),
        cmd("serve", &[
            WORKLOAD, SERVICE, ALLOCATOR, &[switch("paced"), opt("journal-dir", "DIR")], JOURNAL,
            CONSOLIDATION, OVERLOAD, FAULTS, KILL, STORAGE_FAULTS, METRICS,
        ]),
        // No FAULTS or KILL: a journal cannot record either, so the
        // service refuses them together with one.
        cmd("recover", &[
            WORKLOAD, &[req("journal-dir", "DIR")], SERVICE, ALLOCATOR, JOURNAL,
            CONSOLIDATION, OVERLOAD, STORAGE_FAULTS, METRICS,
        ]),
        cmd("scrub", &[&[req("journal-dir", "DIR")]]),
        cmd("corrupt", &[&[
            req("journal-dir", "DIR"),
            req("kind", "snapshot-bit-flip|wal-torn-tail|wal-zero-run"),
            opt("seed", "N"),
        ]]),
        cmd("replay-online", &[WORKLOAD, ALLOCATOR, FAULTS, METRICS]),
        Command { name: "scenario check", positionals: "FILE", groups: &[FAULTS, SCENARIO_KILL] },
        Command { name: "scenario run", positionals: "FILE", groups: &[
            &[opt("db-dir", "DIR"), opt("threads", "N"), opt("out", "FILE")], FAULTS,
            SCENARIO_KILL,
        ] },
        cmd("db-diff", &[&[req("left", "DIR"), req("right", "DIR"), opt("tolerance", "F")]]),
        cmd("info", &[&[req("db-dir", "DIR")]]),
        cmd("lint", &[&[
            opt("root", "DIR"), opt("format", "text|json|sarif"), opt("rules", "LIST"),
            switch("deny"),
        ]]),
    ];
}

/// The declared subcommand called `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl Command {
    /// Every declared flag, in declaration order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// The usage entry, wrapped at 80 columns: positionals, then the
    /// required flags, then the optional ones in brackets.
    pub fn usage(&self) -> String {
        const INDENT: usize = 26;
        let head = format!("{} {}", self.name, self.positionals);
        let mut out = format!("  eavm-cli {:<14}", head.trim_end());
        let mut width = out.len();
        let (required, optional): (Vec<&Flag>, Vec<_>) = self.flags().partition(|f| f.required);
        let render = |f: &Flag| match f.value {
            Some(v) => format!("--{} {v}", f.name),
            None => format!("--{}", f.name),
        };
        let tokens = required.iter().map(|f| render(f));
        for token in tokens.chain(optional.iter().map(|f| format!("[{}]", render(f)))) {
            if width + 1 + token.len() > 80 {
                out.push('\n');
                out.push_str(&" ".repeat(INDENT - 1));
                width = INDENT - 1;
            }
            out.push(' ');
            out.push_str(&token);
            width += 1 + token.len();
        }
        out.push('\n');
        out
    }
}

/// A command line parsed against one subcommand's declared flags.
#[derive(Debug, Clone)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `tokens` (everything after the subcommand and its
    /// positionals) against `command`'s table. Every error names the
    /// offending flag and carries the subcommand's usage.
    pub fn parse(command: &'static Command, tokens: &[String]) -> Result<Self, String> {
        let fail = |msg: String| format!("{msg}\nusage:\n{}", command.usage().trim_end());
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut it = tokens.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(fail(format!("unexpected positional argument {tok:?}")));
            };
            let flag = command.flag(name).ok_or_else(|| match name {
                "cache" => {
                    fail("--cache was removed: the model table holds every hostable mix".into())
                }
                _ => fail(format!("unknown flag --{name} for `{}`", command.name)),
            })?;
            let next = it.next_if(|next| !next.starts_with("--")).cloned();
            match (flag.value, &next) {
                (Some(v), None) => return Err(fail(format!("--{name} needs a value ({v})"))),
                (None, Some(value)) => {
                    return Err(fail(format!("--{name} is a switch, not {value:?}")))
                }
                _ => {}
            }
            if given.iter().any(|(n, _)| *n == flag.name) {
                return Err(fail(format!("duplicate flag --{name}")));
            }
            given.push((flag.name, next));
        }
        let has = |name: &str| given.iter().any(|(n, _)| *n == name);
        for flag in command.flags() {
            if flag.required && !has(flag.name) {
                return Err(fail(format!("missing required flag --{}", flag.name)));
            }
            match flag.needs {
                Some(need) if has(flag.name) && !has(need) => {
                    return Err(fail(format!("--{} needs --{need}", flag.name)))
                }
                _ => {}
            }
        }
        Ok(Args { command, given })
    }

    /// Whether the subcommand declares `name` at all.
    pub fn declares(&self, name: &str) -> bool {
        self.command.flag(name).is_some()
    }

    /// The entry for `name`, if given; `switch` says which kind of flag
    /// the caller expects, and a mismatch with the table is a bug.
    fn lookup(&self, name: &str, switch: bool) -> Option<&Option<String>> {
        let declared = self.command.flag(name).map(|f| f.value.is_none());
        let kind = if switch { "switch" } else { "value flag" };
        debug_assert_eq!(
            declared,
            Some(switch),
            "{:?} reads --{name} as an undeclared {kind}",
            self.command.name
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_optional(name)?.unwrap_or(default))
    }

    /// An optional parsed option: `Ok(None)` when absent, an error only
    /// when present but unparseable.
    pub fn get_optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.lookup(name, false).and_then(Option::as_deref) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// A required parsed option.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get_optional(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Whether a switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.lookup(name, true).is_some()
    }

    /// An optional probability/rate option that must lie in `[0, 1]`.
    /// Rejects NaN and out-of-range values with an error naming the
    /// flag, so a typo like `--fault-rate 10` fails loudly instead of
    /// arming a nonsensical fault plan.
    pub fn fraction_or(&self, name: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.get_or(name, default)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("--{name} must be within [0, 1], got {v}",));
        }
        Ok(v)
    }

    /// An optional count option that must be nonzero: "after 0 events"
    /// is never what anyone means, and silently treating it as "never"
    /// or "immediately" hides the mistake.
    pub fn nonzero_or(&self, name: &str, default: u64) -> Result<u64, String> {
        let v: u64 = self.get_or(name, default)?;
        if v == 0 {
            return Err(format!("--{name} must be nonzero"));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, tokens: &[&str]) -> Result<Args, String> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(command(name).expect("declared subcommand"), &v)
    }

    /// `serve` with its three required flags plus `extra`.
    fn serve(extra: &[&str]) -> Result<Args, String> {
        let mut tokens = vec!["--db-dir", "db", "--trace", "t.swf", "--servers", "4"];
        tokens.extend(extra);
        parse("serve", &tokens)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(
            "simulate",
            &[
                "--db-dir",
                "db",
                "--trace",
                "t.swf",
                "--strategy",
                "ff",
                "--servers",
                "70",
                "--burst",
                "--qos",
                "3.0",
            ],
        )
        .unwrap();
        assert_eq!(a.command.name, "simulate");
        assert_eq!(a.get_required::<usize>("servers").unwrap(), 70);
        assert!(a.flag("burst"));
        assert!(!a.flag("always-on"));
        assert_eq!(a.get_or::<f64>("qos", 1.0).unwrap(), 3.0);
        assert_eq!(a.get_or::<f64>("margin", 0.65).unwrap(), 0.65);
    }

    #[test]
    fn rejects_positionals_and_duplicates() {
        assert!(parse("lint", &["stray"]).is_err());
        let err = parse("lint", &["--root", "a", "--root", "b"]).unwrap_err();
        assert!(err.contains("duplicate flag --root"), "{err}");
        assert!(parse("lint", &["--"]).is_err());
    }

    #[test]
    fn required_option_errors_when_absent() {
        let err = parse("info", &[]).unwrap_err();
        assert!(err.contains("missing required flag --db-dir"), "{err}");
        let err = parse("serve", &["--db-dir", "db"]).unwrap_err();
        assert!(err.contains("missing required flag --trace"), "{err}");
        let a = parse("build-db", &["--out-dir", "db"]).unwrap();
        assert!(a.get_required::<u64>("seed").is_err());
    }

    #[test]
    fn missing_subcommand_is_not_declared() {
        assert!(command("").is_none() && command("frobnicate").is_none());
        assert!(command("scenario").is_none(), "scenario needs its action");
    }

    #[test]
    fn invalid_numeric_value_is_reported() {
        let a = parse("gen-trace", &["--out", "t.swf", "--jobs", "abc"]).unwrap();
        assert!(a.get_or::<u32>("jobs", 1).is_err());
        assert!(a.get_optional::<u32>("jobs").is_err());
    }

    #[test]
    fn optional_option_distinguishes_absent_from_present() {
        let a = parse("scenario check", &["--kill-shard", "2"]).unwrap();
        assert_eq!(a.get_optional::<usize>("kill-shard").unwrap(), Some(2));
        assert_eq!(a.get_optional::<usize>("kill-after").unwrap(), None);
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse("build-db", &["--out-dir", "db", "--exact"]).unwrap();
        assert!(a.flag("exact"));
    }

    #[test]
    fn every_needed_flag_is_declared_alongside() {
        for command in COMMANDS {
            for flag in command.flags() {
                if let Some(need) = flag.needs {
                    assert!(command.flag(need).is_some(), "{}: --{need}", command.name);
                }
                let dups = command.flags().filter(|f| f.name == flag.name).count();
                assert_eq!(dups, 1, "{} declares --{} twice", command.name, flag.name);
            }
        }
    }

    #[test]
    fn fraction_enforces_the_unit_interval() {
        let a = serve(&["--fault-rate", "0.25"]).unwrap();
        assert_eq!(a.fraction_or("fault-rate", 0.0).unwrap(), 0.25);
        assert_eq!(a.fraction_or("storage-bit-flip", 0.5).unwrap(), 0.5);
        for bad in ["1.5", "-0.1", "10", "NaN"] {
            let a = serve(&["--fault-rate", bad]).unwrap();
            let err = a.fraction_or("fault-rate", 0.0).unwrap_err();
            assert!(
                err.contains("fault-rate") && (err.contains("[0, 1]") || err.contains("invalid")),
                "unhelpful error for {bad:?}: {err}"
            );
        }
        // Boundary values are legal.
        for ok in ["0", "1", "0.0", "1.0"] {
            let a = serve(&["--fault-rate", ok]).unwrap();
            assert!(a.fraction_or("fault-rate", 0.0).is_ok(), "{ok} rejected");
        }
    }

    #[test]
    fn nonzero_rejects_zero_counts() {
        let a = parse("scenario check", &["--kill-after", "0"]).unwrap();
        let err = a.nonzero_or("kill-after", 16).unwrap_err();
        assert!(
            err.contains("kill-after") && err.contains("nonzero"),
            "{err}"
        );
        let a = parse("scenario check", &["--kill-after", "3"]).unwrap();
        assert_eq!(a.nonzero_or("kill-after", 16).unwrap(), 3);
        let a = parse("scenario check", &[]).unwrap();
        assert_eq!(a.nonzero_or("kill-after", 16).unwrap(), 16);
    }
}
